"""Penalty catalogue for order-3 tensors: evaluation, dual norms, proximal
maps, structured subspaces, decomposability margins, and compatibility
constants.

Seven penalty kinds are supported.  The first three are one family, the sum
of l2 norms over groups of entries: each group spans the axes `norm_axes`,
and the remaining axes index the groups.

``entry_l1``
    Groups of one entry (spanning no axis): the sum of absolute entries.
``fiber_group``
    Groups of the fibers along one mode: the sum of their vector l2 norms.
``slice_frob``
    Groups of the slices spanned by an axis pair: the sum of their
    Frobenius norms.
``slice_nuclear``
    Sum of matrix nuclear norms over the same slices.
``matricized_nuclear_sum``
    Average of the nuclear norms of the three mode unfoldings.
``tensor_spectral_dual_only``
    Placeholder for the tensor nuclear norm: the primal is NP-hard and is
    never evaluated here; only its dual (the tensor spectral norm) is
    approximated from below by the higher-order power method.
``pairwise_component_nuclear``
    Sum of the three component nuclear norms; on a tensor only its dual is
    defined: the largest top singular value of the three marginal sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ValidationError,
    check_choice,
    check_count,
    check_real,
    fields_from_json,
    is_int,
    json_tuple,
)
from .tensor import ProjectorTriple, _orthonormal, dematricize, matricize, tucker_project

__all__ = [
    "RegularizerSpec",
    "entry_l1",
    "fiber_group",
    "slice_frob",
    "slice_nuclear",
    "matricized_nuclear_sum",
    "tensor_spectral",
    "reg_eval",
    "reg_dual",
    "prox",
    "SubspaceSpec",
    "support_entries",
    "support_fibers",
    "support_slices",
    "slicewise_projectors",
    "tucker_projectors",
    "subspace_project",
    "decomposability_margin",
    "CompatibilityResult",
    "compatibility",
]

# Singular values below this fraction of the largest are treated as zero in
# nuclear-norm evaluation and soft-thresholding.
SV_RTOL = 1e-12

_KINDS = (
    "entry_l1",
    "fiber_group",
    "slice_frob",
    "slice_nuclear",
    "matricized_nuclear_sum",
    "tensor_spectral_dual_only",
    "pairwise_component_nuclear",
)

# the sums of l2 norms over groups of entries, fibers or slices
_GROUP_KINDS = ("entry_l1", "fiber_group", "slice_frob")
# the kinds with a closed-form prox, the pairwise one's on its components
_PROX_KINDS = _GROUP_KINDS + ("slice_nuclear", "pairwise_component_nuclear")


def _group_axis(axes):
    """The axis indexing the slices spanned by `axes`, which must be two
    distinct integers from {0, 1, 2}."""
    ints = isinstance(axes, (tuple, list)) and all(map(is_int, axes))
    if not (ints and sorted(axes) in ([0, 1], [0, 2], [1, 2])):
        raise ValidationError(f"axes must be two distinct integers in 0..2, got {axes!r}")
    return 3 - axes[0] - axes[1]


def _fiber_mode(mode):
    """Refuse `mode` unless it is an integer 0, 1 or 2, not a bool: every fiber mode's rule."""
    if not (is_int(mode) and 0 <= mode <= 2):
        raise ValidationError(f"mode must be an integer 0, 1 or 2, got {mode!r}")


@dataclass(frozen=True)
class RegularizerSpec:
    """Tagged description of which penalty is in force.

    `mode` is the fiber axis for ``fiber_group``; `axes` is the ordered pair
    of axes spanning each slice for the slice kinds.  No other kind takes
    either, and each refusal is a `ValidationError`.  The weak decomposability
    constant is 1 for every kind except the tensor nuclear pair, which
    carries 1/2 (recorded even though that primal is never evaluated).
    """

    kind: str
    mode: int | None = None
    axes: tuple[int, int] | None = None

    def __post_init__(self):
        check_choice("penalty kind", self.kind, _KINDS)
        if self.kind == "fiber_group":
            _fiber_mode(self.mode)
        elif self.mode is not None:
            raise ValidationError(f"{self.kind} takes no mode, got {self.mode!r}")
        if self.kind in ("slice_frob", "slice_nuclear"):
            _group_axis(self.axes)
        elif self.axes is not None:
            raise ValidationError(f"{self.kind} takes no axes, got {self.axes!r}")

    @property
    def c_reg(self):
        return 0.5 if self.kind == "tensor_spectral_dual_only" else 1.0

    @property
    def norm_axes(self):
        """Axes each group spans: none for entries, the fiber mode, or the
        slice pair."""
        return {"entry_l1": (), "fiber_group": (self.mode,)}.get(self.kind, self.axes)

    def has_prox(self):
        return self.kind in _PROX_KINDS

    # not `fields_to_json`, which would write an unset mode or axes as null
    # into the regularizer of every rate report
    def to_json(self):
        out = {"kind": self.kind}
        if self.mode is not None:
            out["mode"] = self.mode
        if self.axes is not None:
            out["axes"] = list(self.axes)
        return out

    @classmethod
    def from_json(cls, obj):
        return fields_from_json(cls, obj, "regularizer", axes=json_tuple)


def entry_l1():
    return RegularizerSpec("entry_l1")


def fiber_group(mode=0):
    return RegularizerSpec("fiber_group", mode=mode)


def slice_frob(axes=(0, 1)):
    return RegularizerSpec("slice_frob", axes=tuple(axes))


def slice_nuclear(axes=(0, 1)):
    return RegularizerSpec("slice_nuclear", axes=tuple(axes))


def matricized_nuclear_sum():
    return RegularizerSpec("matricized_nuclear_sum")


def tensor_spectral():
    return RegularizerSpec("tensor_spectral_dual_only")


def _check_order3(a):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 3 or 0 in a.shape:
        raise ValidationError(f"expected a non-empty order-3 tensor, got shape {a.shape}")
    return a


def _groups(a, axes, inverse=False):
    """View the trailing three axes of `a` with the axes indexing the groups
    first, in increasing order, and the spanned `axes` last, in their given
    order: ``()`` gives the entries, ``(mode,)`` the fibers and a slice pair
    (groups, rows, cols).  A (B, d1, d2, d3) batch reads as B such views;
    `inverse` moves a view back."""
    order = [ax for ax in range(3) if ax not in axes] + list(axes)
    if len(order) != 3 or set(order) != {0, 1, 2}:
        raise ValidationError(f"axes must be distinct integers in 0..2, got {axes!r}")
    if inverse:
        order = [order.index(ax) for ax in range(3)]
    lead = a.ndim - 3
    return a.transpose(*range(lead), *(lead + ax for ax in order))


def _group_norms(a, axes, keepdims=False):
    """The l2 norm of each group spanning `axes`: the absolute entry for
    ``()``.  Correct at every scale: only when a square over- or underflows
    are the norms taken again, each group first rescaled by the power of two
    that brings its largest entry into [0.5, 1), exactly."""
    if not axes:
        return np.abs(a)
    try:
        with np.errstate(over="raise", under="raise"):
            return np.sqrt((a * a).sum(axis=axes, keepdims=keepdims))
    except FloatingPointError:
        pass
    shift = -np.frexp(np.abs(a).max(axis=axes, keepdims=True))[1]
    with np.errstate(over="ignore", under="ignore"):
        x = np.ldexp(a, shift)
        norms = np.ldexp(np.sqrt((x * x).sum(axis=axes, keepdims=True)), -shift)
    return norms if keepdims else norms.squeeze(axis=axes)


def _nuclear(sv_stack):
    """Sum singular values, truncating tiny ones for rank stability."""
    sv = np.asarray(sv_stack)
    cut = SV_RTOL * sv.max(axis=-1, keepdims=True)
    return np.where(sv > cut, sv, 0.0).sum(axis=-1)


def _unfolding_nuclear(a):
    """The nuclear norms of the three mode unfoldings of each tensor in the
    stack `a` of shape (..., d1, d2, d3), one array per unfolding."""
    lead = a.shape[:-3]
    unfold = (np.moveaxis(a, k, -3).reshape(lead + (a.shape[k], -1)) for k in (-3, -2, -1))
    return [_nuclear(np.linalg.svd(m, compute_uv=False)) for m in unfold]


def reg_eval(spec, a):
    """Evaluate the penalty R(a) >= 0."""
    return float(_eval_batch(spec, _check_order3(a)[None])[0])


def _eval_batch(spec, a):
    """The penalty of each tensor in the stack `a` of shape (B, d1, d2, d3)."""
    b = a.shape[0]
    if spec.kind in _GROUP_KINDS:
        axes = tuple(ax - 3 for ax in spec.norm_axes)
        return _group_norms(a, axes).reshape(b, -1).sum(axis=1)
    if spec.kind == "slice_nuclear":
        sv = np.linalg.svd(_groups(a, spec.axes), compute_uv=False)
        return _nuclear(sv).sum(axis=1)
    if spec.kind == "matricized_nuclear_sum":
        n1, n2, n3 = _unfolding_nuclear(a)
        return (n1 + n2 + n3) / 3.0
    raise ValidationError(f"{spec.kind} is not evaluated on a tensor; only its dual is")


def reg_dual(spec, a, *, rng=None):
    """Evaluate the dual norm R*(a).

    Exact for the max-reduction kinds, exact to SVD tolerance for the
    nuclear kinds.  For ``matricized_nuclear_sum`` the returned value is the
    spectral-max form (three times the largest unfolding spectral norm),
    an upper bound on the exact dual that is the standard tuning quantity
    for this penalty.  For ``tensor_spectral_dual_only`` the value is a
    certified lower bound from `hopm_spectral` at its default restart and
    sweep counts, which requires `rng`.
    """
    a = _check_order3(a)
    if spec.kind == "tensor_spectral_dual_only":
        from .spectral import hopm_spectral

        if rng is None:
            raise ValidationError("the spectral dual is stochastic; pass rng")
        return hopm_spectral(a, rng=rng)["value"]
    return float(_dual_batch(spec, a[None])[0])


# A batch of the Monte-Carlo samplers (`spectral.gaussian_width_mc` and
# `compatibility`) holds at most `_WIDTH_BATCH` Gaussian tensors and at most
# `_BATCH_ENTRIES` entries (1 MB), so its memory does not grow with the
# shape. A (m,) + shape draw consumes the same stream as m draws of `shape`.
# The draw cap binds at small shapes, where the power-method products of the
# tensor-spectral dual grow with draws times restarts, not with the entries
# drawn; it also fixes where that dual's restart draws fall in the stream.
_WIDTH_BATCH = 256
_BATCH_ENTRIES = 2**17


def _batch_draws(shape):
    """Draws per Monte-Carlo batch of tensors of `shape`: at least one."""
    return max(1, min(_WIDTH_BATCH, _BATCH_ENTRIES // math.prod(shape)))


def _dual_batch(spec, g, rng=None, hopm_restarts=None, hopm_iters=None):
    """Dual norm of each tensor in the batch `g` of shape (B, d1, d2, d3).

    Only the spectral-dual kind uses `rng` and the HOPM counts: it runs the
    batched alternating maximizer from random starts.
    """
    b = g.shape[0]
    if spec.kind == "pairwise_component_nuclear":
        return _max_top_sv([g.sum(axis=axis)[:, None] for axis in (3, 2, 1)])
    if spec.kind in _GROUP_KINDS:
        axes = tuple(ax + 1 for ax in spec.norm_axes)
        return _group_norms(g, axes).reshape(b, -1).max(axis=1)
    if spec.kind == "slice_nuclear":
        return _max_top_sv([_groups(g, spec.axes)])
    if spec.kind == "matricized_nuclear_sum":
        return 3.0 * _max_unfolding_sv(g)
    if spec.kind == "tensor_spectral_dual_only":
        from .spectral import _hopm

        return _hopm(g, hopm_restarts, hopm_iters, rng)[0]
    raise ValidationError(spec.kind)


# Relative slack on the bounds of `_max_top_sv`, far above the rounding of
# the bounds and of the SVD (near 1e-15). The Gram matrix of an r×c matrix
# may round by up to r·c·eps relative, so that term is added to it.
_SV_BOUND_SLACK = 1e-12


def _pow2_scaled(stacks):
    """The (B, ...) `stacks`, each times one power of two per tensor that
    brings the tensor's largest entry over all of them into [0.5, 1),
    exactly, so that their Gram matrices neither overflow nor underflow;
    C-contiguous, so that the batched products run on BLAS.  Also returns
    the exponents of those powers and the largest absolute entries (NaN
    for a tensor holding NaN)."""
    axes = [tuple(range(1, s.ndim)) for s in stacks]
    peak = np.maximum.reduce(
        [np.maximum(s.max(axis=ax), -s.min(axis=ax)) for s, ax in zip(stacks, axes)]
    )
    shift = -np.frexp(peak)[1]
    scaled = [
        np.ldexp(s, shift.reshape((-1,) + (1,) * (s.ndim - 1)), order="C") for s in stacks
    ]
    return scaled, shift, peak


def _max_unfolding_sv(g):
    """The largest top singular value of the three mode unfoldings of each
    tensor in the batch `g`: the square root of the largest eigenvalue of
    each unfolding's smaller Gram matrix, taken after the exact power-of-two
    rescale of `_pow2_scaled`.  A tensor holding inf gives NaN, and one
    holding NaN raises `LinAlgError`, as a full SVD does."""
    (x,), shift, peak = _pow2_scaled([g])
    b, d1, d2, d3 = x.shape
    finite = np.isfinite(peak)
    if not finite.all():
        if np.isnan(peak).any():
            raise np.linalg.LinAlgError("SVD did not converge")
        x[~finite] = 0.0
    # the first and last unfoldings are views, the last one transposed;
    # a matrix and its transpose have the same Gram matrices
    top = np.zeros(b)
    for mat in (x.reshape(b, d1, -1), np.moveaxis(x, 2, 1).reshape(b, d2, -1),
                x.reshape(b, -1, d3)):
        mat_t = mat.swapaxes(1, 2)
        gram = mat @ mat_t if mat.shape[1] <= mat.shape[2] else mat_t @ mat
        top = np.maximum(top, np.linalg.eigvalsh(gram)[:, -1])
    return np.where(finite, np.ldexp(np.sqrt(top), -shift), np.nan)


@np.errstate(invalid="ignore")
def _max_top_sv(stacks):
    """For each of B tensors, the largest top singular value over its
    matrices, given as a list of (B, k, r, c) stacks.

    The value is the float a full SVD of every matrix gives, but only the
    matrices that can hold the maximum are decomposed.  Let G be the smaller
    Gram matrix of a matrix and H = G / tr G, squared twice.  Then
    σ_max² = λ_max(G) is at most tr G · (tr H⁸)^(1/8), and at least the
    Rayleigh quotient of G at every row of H⁴ (a power iterate).  A matrix
    whose upper bound falls below the best lower bound of its tensor, both
    widened by the slack, cannot hold the maximum and is skipped.  numpy's
    batched SVD decomposes each matrix on its own, so the survivors'
    singular values do not depend on which others are skipped.  Non-finite
    entries give NaN bounds, which skip nothing.
    """
    b = stacks[0].shape[0]
    bounds = []
    for s, x in zip(stacks, _pow2_scaled(stacks)[0]):
        slack = _SV_BOUND_SLACK + s.shape[-2] * s.shape[-1] * np.finfo(float).eps
        xt = np.ascontiguousarray(x.swapaxes(-1, -2))
        gram = x @ xt if x.shape[-2] <= x.shape[-1] else xt @ x
        tr = np.trace(gram, axis1=-2, axis2=-1)
        h = gram / np.where(tr > 0, tr, 1.0)[..., None, None]
        h = h @ h
        h = h @ h
        # row j of the symmetric H⁴ has squared norm (H⁸)_jj
        sq = np.einsum("...ij,...ij->...i", h, h)
        ray = np.einsum("...ij,...ij->...i", h @ gram, h) / np.where(sq > 0, sq, 1.0)
        lo = ray.max(axis=-1) * (1 - slack)
        hi = tr * sq.sum(axis=-1) ** (1 / 8) * (1 + slack)
        bounds.append((lo, hi))
    thr = np.maximum.reduce([lo.max(axis=1) for lo, _ in bounds])[:, None]
    best = np.full(b, -np.inf)
    for s, (_, hi) in zip(stacks, bounds):
        keep = ~(hi < thr)
        top = np.full(keep.shape, -np.inf)
        top[keep] = np.linalg.svd(s[keep], compute_uv=False)[:, 0]
        best = np.maximum(best, top.max(axis=1))
    return best


def prox(spec, z, t):
    """Proximal map argmin_x 0.5*||x - z||_F^2 + t*R(x).

    Closed forms: blockwise shrinkage z·max(1 - t/||z_g||, 0) on each group
    of entries, fibers or slices, and singular value soft-thresholding of
    each slice.
    """
    check_real("t", t, 0)
    z = _check_order3(z)
    if spec.kind in _GROUP_KINDS:
        norms = _group_norms(z, spec.norm_axes, keepdims=True)
        scale = np.where(norms > t, 1.0 - t / np.where(norms > 0, norms, 1.0), 0.0)
        return z * scale
    if spec.kind == "slice_nuclear":
        from .spectral import matrix_svt

        return _groups(matrix_svt(_groups(z, spec.axes), t), spec.axes, inverse=True)
    raise ValidationError(
        f"{spec.kind} has no closed-form prox; use the consensus solver"
    )


def _reg_subgrad(spec, a):
    """A subgradient of R at `a` (used by the compatibility ascent)."""
    a = _check_order3(a)
    if spec.kind in _GROUP_KINDS:
        norms = _group_norms(a, spec.norm_axes, keepdims=True)
        return a / np.where(norms > 0, norms, 1.0)
    if spec.kind == "slice_nuclear":
        u, _, vt = np.linalg.svd(_groups(a, spec.axes), full_matrices=False)
        return _groups(u @ vt, spec.axes, inverse=True)
    if spec.kind == "matricized_nuclear_sum":
        out = np.zeros_like(a)
        for k in range(3):
            u, _, vt = np.linalg.svd(matricize(a, [k]), full_matrices=False)
            out += dematricize(u @ vt, a.shape, [k]) / 3.0
        return out
    raise ValidationError(spec.kind)


# ---------------------------------------------------------------------------
# Structured subspaces
# ---------------------------------------------------------------------------


_SUBSPACE_VARIANTS = ("support_entries", "support_fibers", "support_slices",
                      "slicewise_projectors", "tucker_projectors")


@dataclass(frozen=True)
class SubspaceSpec:
    """A low-dimensional subspace against which decomposability margins and
    compatibility constants are evaluated.

    Variants: explicit index supports at entry, fiber, or slice granularity;
    per-slice projector pairs; and mode-wise projector triples with a role
    selecting which of the two complementary Tucker projections defines the
    space.

    Every field is checked however the subspace is made.  Each index of a
    support names one group of the grid that the axes outside `norm_axes`
    index: (i, j, k) for an entry, a pair for a fiber, a slice number or
    1-tuple for a slice.  An index of the wrong length, out of range or
    repeated raises ValidationError, since each would misstate the
    intrinsic dimension that `compatibility` bounds by the number of
    indices.
    """

    variant: str
    shape: tuple[int, ...]
    indices: tuple = ()
    mode: int | None = None
    axes: tuple[int, int] | None = None
    slice_factors: tuple = field(default=(), repr=False)
    triple: ProjectorTriple | None = field(default=None, repr=False)
    role: str | None = None

    def __post_init__(self):
        check_choice("subspace variant", self.variant, _SUBSPACE_VARIANTS)
        object.__setattr__(self, "shape", tuple(self.shape))
        if self.variant == "support_fibers":
            _fiber_mode(self.mode)
        if self.variant in ("support_slices", "slicewise_projectors"):
            _group_axis(self.axes)
            object.__setattr__(self, "axes", tuple(self.axes))
        if self.norm_axes is not None:
            grid = tuple(d for ax, d in enumerate(self.shape) if ax not in self.norm_axes)
            keys = []
            for idx in self.indices:
                try:
                    key = tuple(idx)
                except TypeError:
                    key = (idx,)
                if len(key) != len(grid) or not all(
                    is_int(i) and 0 <= i < d for i, d in zip(key, grid)
                ):
                    raise ValidationError(f"index {idx!r} names no group of the grid {grid}")
                keys.append(tuple(map(int, key)))
            if len(set(keys)) < len(keys):
                raise ValidationError("a support index is repeated")
            object.__setattr__(self, "indices", tuple(keys))
            return
        check_choice("role", self.role, ("a_space", "b_space"))
        if self.variant == "tucker_projectors":
            if getattr(self.triple, "dims", None) != self.shape:
                raise ValidationError("projector dims do not match shape")
        else:
            if len(self.slice_factors) != self.shape[_group_axis(self.axes)]:
                raise ValidationError("need one factor pair per slice")
            rows, cols = self.shape[self.axes[0]], self.shape[self.axes[1]]
            factors = tuple(
                (_orthonormal(u1, rows), _orthonormal(u2, cols))
                for u1, u2 in self.slice_factors
            )
            object.__setattr__(self, "slice_factors", factors)

    @property
    def norm_axes(self):
        """Axes each group of a support variant spans: none for entries, the
        fiber mode, or the slice pair; None for the projector variants."""
        if self.variant == "support_slices":
            return self.axes
        return {"support_entries": (), "support_fibers": (self.mode,)}.get(self.variant)


def support_entries(shape, indices):
    return SubspaceSpec("support_entries", shape, indices)


def support_fibers(shape, indices, mode=0):
    return SubspaceSpec("support_fibers", shape, indices, mode=mode)


def support_slices(shape, indices, axes=(0, 1)):
    return SubspaceSpec("support_slices", shape, indices, axes=axes)


def slicewise_projectors(shape, factors, axes=(0, 1), role="a_space"):
    """Per-slice projector pairs (U1_j, U2_j) along the group axis.

    U1_j has a row per row of slice j and U2_j a row per column, each with
    orthonormal columns; the ranks sum to the compatibility bound.

    The a_space role spans the slices whose doubly-complemented corner
    vanishes; the b_space role spans the slices fixed by projecting on both
    sides, the smaller space where structured truths live.
    """
    return SubspaceSpec(
        "slicewise_projectors", shape, axes=axes, slice_factors=factors, role=role
    )


def tucker_projectors(shape, triple, role="b_space"):
    return SubspaceSpec("tucker_projectors", shape, triple=triple, role=role)


def _support_mask(sub):
    mask = np.zeros(sub.shape, dtype=bool)
    groups = _groups(mask, sub.norm_axes)
    for idx in sub.indices:
        groups[idx] = True
    return mask


def subspace_project(sub, a, which="space"):
    """Orthogonal projection of `a` onto the subspace or its complement.

    `a` is one tensor of the subspace's shape or a (..., d1, d2, d3) stack
    of them, projected one by one.  The two projections sum to `a`.
    Support variants zero out the complementary index set.  For projector
    triples, the a_space role applies the low-perp four-term pattern and
    the b_space role applies the plain mode-wise projection.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-3:] != sub.shape:
        raise ValidationError(f"tensor shape {a.shape} != subspace shape {sub.shape}")
    check_choice("which", which, ("space", "complement"))
    if sub.norm_axes is not None:
        mask = _support_mask(sub)
        return np.where(mask, a, 0.0) if which == "space" else np.where(mask, 0.0, a)
    if sub.variant == "slicewise_projectors":
        stack = _groups(a, sub.axes).copy()
        for j, (u1, u2) in enumerate(sub.slice_factors):
            s = stack[..., j, :, :]
            if sub.role == "b_space":
                proj = u1 @ (u1.T @ s @ u2) @ u2.T
            else:
                perp = s - u1 @ (u1.T @ s)
                proj = s - (perp - perp @ u2 @ u2.T)
            stack[..., j, :, :] = proj if which == "space" else s - proj
        return _groups(stack, sub.axes, inverse=True)
    pattern = "q" if sub.role == "a_space" else "full"
    proj = tucker_project(a, sub.triple, pattern)
    return proj if which == "space" else a - proj


def decomposability_margin(spec, sub_a, sub_b, a, b):
    """Margin R(a+b) - R(a) - c_R * R(b) after projecting `a` onto the
    complement of `sub_a` and `b` onto `sub_b`.

    Nonnegativity over matched pairs is a property asserted by callers,
    not enforced here.
    """
    a = subspace_project(sub_a, a, "complement")
    b = subspace_project(sub_b, b, "space")
    return reg_eval(spec, a + b) - reg_eval(spec, a) - spec.c_reg * reg_eval(spec, b)


# ---------------------------------------------------------------------------
# Compatibility constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompatibilityResult:
    analytic_bound: float
    mc_estimate: float


def _matched_bound(spec, sub):
    """Closed-form compatibility bound for the matched pairs: a group kind
    and a support variant whose groups span the same axes, the slice-nuclear
    norm and projector pairs on the same slices, and the nuclear kinds and
    Tucker projectors."""
    groups = sub.norm_axes is not None and spec.kind in _GROUP_KINDS
    if groups and set(spec.norm_axes) == set(sub.norm_axes):
        return float(len(sub.indices))
    if (
        spec.kind == "slice_nuclear"
        and sub.variant == "slicewise_projectors"
        and set(spec.axes) == set(sub.axes)
    ):
        return float(sum(u1.shape[1] + u2.shape[1] for u1, u2 in sub.slice_factors))
    if sub.variant == "tucker_projectors" and sub.role == "b_space":
        r = max(sub.triple.ranks)
        if spec.kind == "matricized_nuclear_sum":
            return float(r)
        if spec.kind == "tensor_spectral_dual_only":
            return float(r * r)
    raise ValidationError(f"no closed-form bound for ({spec.kind}, {sub.variant})")


def _surrogate_ratio(spec, a):
    """R^2 / ||a||_F^2 of each tensor in the stack `a` of shape
    (B, d1, d2, d3), 0 for a zero tensor, with a computable stand-in for
    the NP-hard primal."""
    fro2 = (a * a).reshape(len(a), -1).sum(axis=1)
    if spec.kind == "tensor_spectral_dual_only":
        # The tensor nuclear norm dominates each unfolding nuclear norm, so
        # the max over unfoldings gives a certified lower bound when the
        # primal itself cannot be evaluated.
        val = np.maximum.reduce(_unfolding_nuclear(a))
    else:
        val = _eval_batch(spec, a)
    return np.where(fro2 > 0, val * val / np.where(fro2 > 0, fro2, 1.0), 0.0)


def compatibility(spec, sub, *, draws=10000, ascent_steps=100, rng=None):
    """Analytic bound and Monte-Carlo estimate of sup R^2(A)/||A||_F^2 over
    the subspace.

    The sampler projects standard Gaussian tensors onto the subspace and
    normalizes; the first sample with the largest ratio is refined by
    normalized gradient ascent on the ratio.  Samples are drawn and scored
    in (m,) + shape chunks of at most 256 draws and 2**17 entries, which
    consume the stream that one draw at a time would, so the generator
    state and the estimate do not depend on the chunk size.  `draws` and
    `ascent_steps` must be integers >= 0.  For the tensor-nuclear pair the
    primal is replaced by its largest-unfolding lower bound, making the
    estimate a lower estimate.
    """
    draws = check_count("draws", draws, 0)
    ascent_steps = check_count("ascent_steps", ascent_steps, 0)
    analytic = _matched_bound(spec, sub)
    if rng is None:
        rng = np.random.default_rng(0)
    best = 0.0
    best_a = None
    batch = _batch_draws(sub.shape)
    for start in range(0, draws, batch):
        m = min(batch, draws - start)
        a = subspace_project(sub, rng.standard_normal((m,) + sub.shape), "space")
        nrm = np.sqrt((a * a).reshape(m, -1).sum(axis=1))
        a /= np.where(nrm > 0, nrm, 1.0)[:, None, None, None]
        ratio = _surrogate_ratio(spec, a)
        i = int(ratio.argmax())
        if ratio[i] > best:
            best, best_a = float(ratio[i]), a[i]
    if best_a is not None and spec.kind != "tensor_spectral_dual_only":
        a = best_a
        step = 0.1
        for _ in range(ascent_steps):
            r_val = reg_eval(spec, a)
            grad = 2.0 * r_val * _reg_subgrad(spec, a) - 2.0 * (r_val**2) * a
            grad = subspace_project(sub, grad, "space")
            gn = np.linalg.norm(grad)
            if gn < 1e-14:
                break
            cand = a + step * grad / gn
            cand = subspace_project(sub, cand, "space")
            cand /= np.linalg.norm(cand)
            ratio = float(_surrogate_ratio(spec, cand[None])[0])
            if ratio > best:
                best, a = ratio, cand
            else:
                step *= 0.5
    return CompatibilityResult(analytic_bound=analytic, mc_estimate=best)
