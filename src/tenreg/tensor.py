"""Dense tensor arithmetic: contraction, matricization, Tucker-style
projections, and the TNS1 binary file format.

Tensors are plain numpy ``float64`` arrays in C order, i.e. the flat layout
runs with the *last index fastest*.  :func:`read_tns` rejects NaN/Inf and
returns a read-only, contiguous array of its own; the other functions here
return ordinary writable arrays.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import ValidationError, check_choice, check_finite, check_shape, is_int

__all__ = [
    "inner",
    "matricize",
    "dematricize",
    "ProjectorTriple",
    "tucker_project",
    "read_tns",
    "write_tns",
]

TNS_MAGIC = b"TNS1"


def _freeze(arr):
    """Flag an array the caller owns read-only, after rejecting NaN/Inf."""
    check_finite("tensor entries", arr)
    arr.flags.writeable = False
    return arr


def inner(a, b):
    """Contract `a` against the leading modes of `b`.

    The shape of `a` must be a prefix of the shape of `b`.  Equal shapes
    give the scalar ``sum(a * b)``; otherwise the result has the trailing
    shape of `b`, its entries being the full contraction over the shared
    leading indices.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = a.ndim, b.ndim
    if m > n or a.shape != b.shape[:m]:
        raise ValidationError(f"shape {a.shape} is not a prefix of {b.shape}")
    out = np.tensordot(a, b, axes=(tuple(range(m)), tuple(range(m))))
    if m == n:
        return float(out)
    return out


def matricize(a, modes):
    """Unfold `a` into a matrix with the given modes as rows.

    Rows are indexed by the `modes` subset (in the order given), columns by
    the remaining axes in increasing order; both multi-indices are flattened
    last-index-fastest.  ``matricize(a, [k])`` is the mode-k unfolding whose
    columns are the mode-k fibers.
    """
    a = np.asarray(a, dtype=np.float64)
    modes = list(modes)
    if not modes:
        raise ValidationError("modes must be non-empty")
    if len(set(modes)) != len(modes):
        raise ValidationError(f"duplicate axes in {modes}")
    if any(k < 0 or k >= a.ndim for k in modes):
        raise ValidationError(f"axes {modes} out of range for order-{a.ndim} tensor")
    if len(modes) >= a.ndim:
        raise ValidationError("modes must be a proper subset of the axes")
    rest = [k for k in range(a.ndim) if k not in modes]
    rows = int(np.prod([a.shape[k] for k in modes]))
    return np.transpose(a, modes + rest).reshape(rows, -1)


def dematricize(mat, shape, modes):
    """Inverse of :func:`matricize` for the given full `shape`."""
    mat = np.asarray(mat, dtype=np.float64)
    modes = list(modes)
    rest = [k for k in range(len(shape)) if k not in modes]
    inter = [shape[k] for k in modes] + [shape[k] for k in rest]
    inv = np.argsort(modes + rest)
    return np.transpose(mat.reshape(inter), inv)


def _mode_multiply(a, mat, k):
    """Apply a matrix to mode k of `a`, counted among its last three axes."""
    return np.moveaxis(np.tensordot(mat, a, axes=(1, k - 3)), 0, k - 3)


_ORTHONORMAL_TOL = 1e-10


def _orthonormal(u, rows=None):
    """`u` as a float64 matrix, of `rows` rows when given, whose columns are
    orthonormal to `_ORTHONORMAL_TOL`, else a ValidationError."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or rows not in (None, u.shape[0]):
        want = "a matrix" if rows is None else f"a matrix of {rows} rows"
        raise ValidationError(f"factor of shape {u.shape} is not {want}")
    if not np.allclose(u.T @ u, np.eye(u.shape[1]), atol=_ORTHONORMAL_TOL):
        raise ValidationError("factor columns must be orthonormal")
    return u


class ProjectorTriple:
    """Three orthogonal projectors, one per mode, stored as basis factors.

    Each projector ``P_k = U_k @ U_k.T`` is kept through its orthonormal
    column factor ``U_k`` so ranks are explicit and applications cost
    ``d * rank`` instead of ``d**2``.
    """

    def __init__(self, factors):
        if len(factors) != 3:
            raise ValidationError("expected exactly three factors")
        self.factors = [_orthonormal(u) for u in factors]

    @property
    def ranks(self):
        return tuple(u.shape[1] for u in self.factors)

    @property
    def dims(self):
        return tuple(u.shape[0] for u in self.factors)

    @classmethod
    def random(cls, dims, ranks, rng):
        """Draw Haar-random orthonormal factors of the given ranks.  Refuses
        `dims` that are not a shape and `ranks` that are not three integers,
        each in 1..its dim, before the first draw."""
        dims = check_shape("dims", dims)
        if not (isinstance(ranks, (tuple, list)) and len(ranks) == 3
                and all(is_int(r) and 1 <= r <= d for d, r in zip(dims, ranks))):
            raise ValidationError(
                f"ranks must be three integers, each in 1..its dim of {dims}, got {ranks!r}"
            )
        factors = []
        for d, r in zip(dims, ranks):
            q, _ = np.linalg.qr(rng.standard_normal((d, r)))
            factors.append(q)
        return cls(factors)

    def apply_mode(self, a, k, perp=False):
        """Apply ``P_k`` (or ``I - P_k``) to mode k of `a`."""
        u = self.factors[k]
        proj = _mode_multiply(a, u.T, k)
        proj = _mode_multiply(proj, u, k)
        return a - proj if perp else proj

    def apply_pattern(self, a, perp_mask):
        """Apply one sign-pattern term, e.g. ``P1 x P2perp x P3``."""
        out = a
        for k, perp in enumerate(perp_mask):
            out = self.apply_mode(out, k, perp=perp)
        return out


def tucker_project(a, triple, pattern="full"):
    """Project `a` using a :class:`ProjectorTriple`.

    ``pattern="full"`` applies ``P1 x P2 x P3`` mode-wise, in mode order.
    ``"q"`` sums the four sign-pattern terms with at most one complemented
    mode, ``P1P2 + P1P3 + P2P3 - 2 P1P2P3``, from six mode products; it is
    an orthogonal projection, and ``a - q`` sums the other four terms.  A
    (..., d1, d2, d3) stack is projected tensor by tensor.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 3:
        raise ValidationError("tucker_project expects an order-3 tensor or a stack of them")
    if a.shape[-3:] != triple.dims:
        raise ValidationError(f"tensor shape {a.shape} != projector dims {triple.dims}")
    check_choice("pattern", pattern, ("full", "q"))
    p1 = triple.apply_mode(a, 0)
    p12 = triple.apply_mode(p1, 1)
    p123 = triple.apply_mode(p12, 2)
    if pattern == "full":
        return p123
    p13 = triple.apply_mode(p1, 2)
    p23 = triple.apply_mode(triple.apply_mode(a, 1), 2)
    return p12 + p13 + p23 - 2.0 * p123


def write_tns(path, a):
    """Write a tensor in the TNS1 binary format.

    Layout: magic ``b"TNS1"``, u32 order N, N little-endian u64 extents,
    then the entries as little-endian float64 in C order (last index
    fastest).  The payload is written from the array's own buffer, so an
    input that already is C-ordered ``<f8`` is not copied.
    """
    a = np.ascontiguousarray(a, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(TNS_MAGIC)
        fh.write(struct.pack("<I", a.ndim))
        fh.write(struct.pack(f"<{a.ndim}Q", *a.shape))
        fh.write(a)


def _header_field(fh, end, fmt):
    """Unpack `fmt` at the position of `fh`, a file of `end` bytes, after
    checking that the file holds it."""
    need = struct.calcsize(fmt)
    if end - fh.tell() < need:
        raise ValidationError(f"truncated header: {end} bytes, need {fh.tell() + need}")
    return struct.unpack(fmt, fh.read(need))


def read_tns(path):
    """Read a TNS1 file as a finite, read-only array, rejecting bad magic,
    truncated headers, non-finite entries and truncated or over-long
    payloads.

    The order and extents are checked against the file's size before they
    are read, and the payload's length against the header before anything
    is allocated; it is then read straight into the returned array.
    """
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != TNS_MAGIC:
            raise ValidationError(f"bad magic {magic!r}, expected {TNS_MAGIC!r}")
        (order,) = _header_field(fh, end, "<I")
        shape = _header_field(fh, end, f"<{order}Q")
        size = end - fh.tell()
        expected = math.prod(shape) * 8
        if size == expected:
            data = np.empty(shape, dtype="<f8")
            size = fh.readinto(data)  # short only if the file shrank meanwhile
    if size != expected:
        raise ValidationError(f"payload of {size} bytes, expected {expected}")
    return _freeze(data)
