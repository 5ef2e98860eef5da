import numpy as np
import pytest

from tenreg.errors import ValidationError
from tenreg.tensor import (
    ProjectorTriple,
    dematricize,
    inner,
    matricize,
    read_tns,
    tucker_project,
    write_tns,
)

rng = np.random.default_rng(42)


def naive_partial_inner(a, b):
    """Triple-loop oracle for the prefix contraction."""
    m = a.ndim
    out = np.zeros(b.shape[m:])
    for idx in np.ndindex(a.shape):
        out += a[idx] * b[idx]
    return out


class TestInner:
    def test_zero_tensors(self):
        assert inner(np.zeros((2, 3)), np.zeros((2, 3))) == 0.0

    def test_indicator_selects_fiber(self):
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        b = np.arange(1.0, 9.0).reshape(2, 2, 2)
        np.testing.assert_allclose(inner(a, b), [b[0, 0, 0], b[0, 0, 1]])

    def test_matches_triple_loop(self):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3, 4))
        np.testing.assert_allclose(inner(a, b), naive_partial_inner(a, b), atol=1e-12)

    def test_scalar_case(self):
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((3, 2))
        assert inner(a, b) == pytest.approx(float((a * b).sum()))

    def test_prefix_violation(self):
        with pytest.raises(ValidationError, match="is not a prefix of"):
            inner(rng.standard_normal((3, 2)), rng.standard_normal((2, 3, 4)))
        with pytest.raises(ValidationError, match="is not a prefix of"):
            inner(rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3)))

    def test_linearity(self):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 3, 4))
        c = rng.standard_normal((2, 3, 4))
        lhs = inner(2.5 * a - 1.5 * b, c)
        rhs = 2.5 * inner(a, c) - 1.5 * inner(b, c)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rank_one_against_triple_loop(self):
        u, v, w = (rng.standard_normal(d) for d in (2, 3, 2))
        g = rng.standard_normal((2, 3, 2))
        total = 0.0
        for i in range(2):
            for j in range(3):
                for k in range(2):
                    total += u[i] * v[j] * w[k] * g[i, j, k]
        assert inner(np.einsum("i,j,k->ijk", u, v, w), g) == pytest.approx(total)


class TestMatricize:
    def test_mode1_enumeration(self):
        a = np.arange(1.0, 9.0).reshape(2, 2, 2)
        m1 = matricize(a, [0])
        # index-arithmetic oracle over all 8 entries
        expected = np.zeros((2, 4))
        for j1 in range(2):
            for j2 in range(2):
                for j3 in range(2):
                    expected[j1, j2 * 2 + j3] = a[j1, j2, j3]
        np.testing.assert_array_equal(m1, expected)

    def test_round_trip(self):
        a = rng.standard_normal((3, 4, 5))
        for modes in ([0], [1], [2], [0, 2], [2, 0], [1, 2]):
            m = matricize(a, modes)
            np.testing.assert_array_equal(dematricize(m, a.shape, modes), a)

    def test_frobenius_preserved(self):
        a = rng.standard_normal((3, 4, 5))
        for k in range(3):
            assert np.linalg.norm(matricize(a, [k])) == pytest.approx(
                np.linalg.norm(a)
            )

    def test_tucker_rank(self):
        r = 2
        factors = [np.linalg.qr(rng.standard_normal((d, r)))[0] for d in (5, 6, 7)]
        core = rng.standard_normal((r, r, r))
        a = np.einsum("abc,ia,jb,kc->ijk", core, *factors)
        for k in range(3):
            assert np.linalg.matrix_rank(matricize(a, [k]), tol=1e-10) == r

    def test_invalid_axes(self):
        a = rng.standard_normal((2, 3, 4))
        with pytest.raises(ValidationError, match="modes must be non-empty"):
            matricize(a, [])
        with pytest.raises(ValidationError, match="duplicate axes"):
            matricize(a, [0, 0])
        with pytest.raises(ValidationError, match="out of range for order-3 tensor"):
            matricize(a, [3])
        with pytest.raises(ValidationError, match="proper subset of the axes"):
            matricize(a, [0, 1, 2])


class TestTuckerProject:
    def _triple(self, dims=(4, 5, 6), ranks=(2, 2, 3)):
        return ProjectorTriple.random(dims, ranks, rng)

    def test_random_draws_each_factor_in_mode_order(self):
        got = ProjectorTriple.random((4, 5, 6), (2, 2, 3), np.random.default_rng(3))
        r = np.random.default_rng(3)
        for u, (d, k) in zip(got.factors, ((4, 2), (5, 2), (6, 3))):
            np.testing.assert_array_equal(u, np.linalg.qr(r.standard_normal((d, k)))[0])

    @pytest.mark.parametrize(
        "dims, ranks",
        [((4, 4, 4), (5, 2, 2)), ((4, 4, 4), (0, 2, 2)), ((4, 4, 4), (-1, 2, 2)),
         ((4, 4, 4), (2.5, 2, 2)), ((4, 4, 4), (True, 2, 2)), ((4, 4, 4), (2, 2)),
         ((4, 0, 4), (1, 1, 1)), ((4, 4), (1, 1))],
        ids=["above-dim", "zero", "negative", "fraction", "bool", "two-ranks",
             "zero-dim", "two-dims"],
    )
    def test_random_refuses_bad_dims_or_ranks_before_a_draw(self, dims, ranks):
        # no generator: a draw would raise AttributeError, not a refusal
        with pytest.raises(ValidationError, match="must be three integers"):
            ProjectorTriple.random(dims, ranks, None)

    def test_identity_projectors(self):
        dims = (3, 4, 5)
        triple = ProjectorTriple([np.eye(d) for d in dims])
        a = rng.standard_normal(dims)
        np.testing.assert_allclose(tucker_project(a, triple, "full"), a)

    def test_zero_projectors_q(self):
        dims = (3, 4, 5)
        triple = ProjectorTriple([np.zeros((d, 0)) for d in dims])
        a = rng.standard_normal(dims)
        np.testing.assert_allclose(tucker_project(a, triple, "q"), np.zeros(dims))

    def test_full_idempotent(self):
        triple = self._triple()
        a = rng.standard_normal((4, 5, 6))
        once = tucker_project(a, triple, "full")
        twice = tucker_project(once, triple, "full")
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_q_qperp_orthogonal(self):
        triple = self._triple()
        a = rng.standard_normal((4, 5, 6))
        qa = tucker_project(a, triple, "q")
        assert abs((qa * (a - qa)).sum()) < 1e-10

    def test_rank_one_eight_term_expansion(self):
        # compare against brute-force expansion over all sign patterns
        dims = (4, 5, 6)
        triple = ProjectorTriple.random(dims, (1, 1, 1), rng)
        u = triple.factors[0][:, 0]
        v = rng.standard_normal(5)
        w = rng.standard_normal(6)
        a = np.einsum("i,j,k->ijk", u, v, w)
        terms = []
        for mask in [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]:
            terms.append((mask, triple.apply_pattern(a, mask)))
        q_manual = sum(t for m, t in terms if sum(m) <= 1)
        np.testing.assert_allclose(tucker_project(a, triple, "q"), q_manual, atol=1e-12)
        total = sum(t for _, t in terms)
        np.testing.assert_allclose(total, a, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_q_and_qperp_are_their_four_term_sums(self, seed):
        # a Gaussian stack against rank-(2, 2, 3) projectors; "full" keeps
        # the bytes of the mode-by-mode product
        r = np.random.default_rng(seed)
        triple = ProjectorTriple.random((4, 5, 6), (2, 2, 3), r)
        a = r.standard_normal((3, 4, 5, 6))
        masks = [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
        terms = {m: triple.apply_pattern(a, m) for m in masks}
        q = tucker_project(a, triple, "q")
        for got, low in ((q, True), (a - q, False)):
            want = sum(t for m, t in terms.items() if (sum(m) <= 1) == low)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(tucker_project(a, triple, "full"), terms[0, 0, 0])

    def test_shape_mismatch(self):
        triple = self._triple()
        with pytest.raises(ValidationError, match="!= projector dims"):
            tucker_project(rng.standard_normal((3, 3, 3)), triple, "full")


class TestFrobeniusIdentity:
    def test_inner_self_is_squared_norm(self):
        a = rng.standard_normal((3, 4, 2))
        assert inner(a, a) == pytest.approx(np.linalg.norm(a) ** 2)


class TestTnsFormat:
    def test_round_trip(self, tmp_path):
        a = rng.standard_normal((3, 4, 5))
        path = tmp_path / "t.tns"
        write_tns(path, a)
        np.testing.assert_array_equal(read_tns(path), a)

    def test_layout_is_last_index_fastest(self, tmp_path):
        a = np.arange(8.0).reshape(2, 2, 2)
        path = tmp_path / "t.tns"
        write_tns(path, a)
        raw = path.read_bytes()
        header = 4 + 4 + 3 * 8
        payload = np.frombuffer(raw[header:], dtype="<f8")
        np.testing.assert_array_equal(payload, np.arange(8.0))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            read_tns(path)

    def test_truncated_payload(self, tmp_path):
        a = rng.standard_normal((2, 2))
        path = tmp_path / "t.tns"
        write_tns(path, a)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="payload"):
            read_tns(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.tns"
        write_tns(path, rng.standard_normal((2, 3)))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match="payload of 56 bytes, expected 48"):
            read_tns(path)

    @pytest.mark.parametrize(
        "raw, need",
        [(b"TNS1", 8), (b"TNS1\x03\x00", 8), (b"TNS1\x03\x00\x00\x00", 32),
         (b"TNS1\x03\x00\x00\x00" + b"\x02\x00" * 8, 32),
         (b"TNS1\xe8\x03\x00\x00" + b"\x00" * 16, 8008)],
        ids=["no-order", "cut-order", "no-extents", "cut-extents", "order-1000"],
    )
    def test_truncated_header(self, tmp_path, raw, need):
        # the order and extents are checked against the file's size, so an
        # order of 1000 is refused without reading 8000 bytes
        path = tmp_path / "t.tns"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=f"truncated header: {len(raw)} bytes, need {need}$"):
            read_tns(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_payload(self, tmp_path, bad):
        a = np.zeros((2, 2, 2))
        a[1, 0, 1] = bad
        path = tmp_path / "t.tns"
        write_tns(path, a)
        with pytest.raises(ValidationError, match="^tensor entries must be finite$"):
            read_tns(path)

    def test_read_returns_a_frozen_array_of_its_own(self, tmp_path):
        a = rng.standard_normal((3, 4, 5))
        path = tmp_path / "t.tns"
        write_tns(path, a)
        got = read_tns(path)
        assert got.flags.owndata and got.flags.c_contiguous
        assert not got.flags.writeable
        assert got.dtype == np.float64 and got.shape == (3, 4, 5)
        with pytest.raises(ValueError):
            got[0, 0, 0] = 1.0

    @pytest.mark.parametrize(
        "layout",
        [lambda a: a.astype(">f8"), lambda a: np.asfortranarray(a),
         lambda a: np.repeat(a, 2, axis=2)[..., ::2], lambda a: a.astype(np.float32)],
        ids=["big_endian", "fortran", "strided_view", "float32"],
    )
    def test_any_layout_writes_the_c_ordered_bytes(self, tmp_path, layout):
        a = rng.standard_normal((3, 4, 5)).astype(np.float32).astype(np.float64)
        write_tns(tmp_path / "c.tns", np.ascontiguousarray(a, dtype="<f8"))
        write_tns(tmp_path / "other.tns", layout(a))
        assert (tmp_path / "other.tns").read_bytes() == (tmp_path / "c.tns").read_bytes()
