"""Spectral machinery: singular value soft-thresholding, the higher-order
power method for the tensor spectral norm, and Monte-Carlo estimation of
Gaussian widths of penalty unit balls.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import SvdFailure, ZeroTensor
from .regularizers import RegularizerSpec, _dual_batch

__all__ = [
    "matrix_svt",
    "hopm_spectral",
    "WidthEstimate",
    "gaussian_width_mc",
    "width_rate_expression",
]


def matrix_svt(z, t):
    """Singular value soft-thresholding, the prox of the matrix nuclear norm.

    Returns ``U max(S - t, 0) V^T`` for the SVD of `z`; singular values below
    1e-12 of the largest are zeroed for rank stability.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    z = np.asarray(z, dtype=np.float64)
    try:
        u, s, vt = np.linalg.svd(z, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge on shape {z.shape}") from exc
    s = np.maximum(s - t, 0.0)
    if s.size and s[0] > 0:
        s[s < 1e-12 * s[0]] = 0.0
    return (u * s) @ vt


# A restart stops once no tensor in the batch gains this much in a sweep.
_HOPM_TOL = 1e-12


def _hopm(g, restarts, iters, rng, start=None):
    """Alternating maximization of <g_b, u o v o w> over unit factors for
    each tensor g_b of the batch `g` of shape (B, d1, d2, d3).

    Each restart draws v, then w, from `rng` (the first takes `start`
    = (v, w) when given) and runs at most `iters` sweeps.  A sweep's value
    is the norm of the contracted w, attained by the normalized factors.
    Returns the best value per tensor and the factors (u, v, w) attaining it.
    """
    if restarts < 1 or iters < 1:
        raise ValueError("HOPM needs restarts >= 1 and iters >= 1")
    b, d1, d2, d3 = g.shape
    best = np.zeros(b)
    for r in range(restarts):
        if r == 0 and start is not None:
            v, w = start
        else:
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
            if np.all(new - val < _HOPM_TOL):
                val = np.maximum(val, new)
                break
            val = new
        if r:
            keep = (val <= best)[:, None]
            u, v, w = (np.where(keep, old, f) for old, f in zip(factors, (u, v, w)))
        factors = (u, v, w)
        best = np.maximum(best, val)
    return best, factors


def hopm_spectral(a, restarts=20, iters=200, *, rng=None):
    """Lower-bound the tensor spectral norm by alternating maximization.

    Runs the width estimator's batched loop on a batch of one.  The first
    restart starts from the leading left singular vectors of the mode-2 and
    mode-3 unfoldings, the other `restarts - 1` from random factors drawn
    from `rng`.  The returned value is attained by the returned unit
    factors, hence a certified lower bound.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 3:
        raise ZeroTensor("expected an order-3 tensor")
    if not np.any(a):
        raise ZeroTensor("spectral norm of the zero tensor is undefined here")
    if rng is None:
        rng = np.random.default_rng(0)
    unfold = (np.moveaxis(a, k, 0).reshape(a.shape[k], -1) for k in (1, 2))
    start = [np.linalg.svd(m, full_matrices=False)[0][None, :, 0] for m in unfold]
    best, factors = _hopm(a[None], restarts, iters, rng, start)
    return {"value": float(best[0]), "factors": tuple(f[0] for f in factors)}


@dataclass(frozen=True)
class WidthEstimate:
    """Monte-Carlo Gaussian width estimate with its sampling error."""

    mean: float
    std_error: float
    draws: int
    lemma_bound_form: str
    seed: int
    shape: tuple[int, ...]
    kind: str

    def __post_init__(self):
        if self.draws < 100:
            raise ValueError("draws must be >= 100")

    def to_json(self):
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "draws": self.draws,
            "lemma_bound_form": self.lemma_bound_form,
            "seed": self.seed,
            "shape": list(self.shape),
            "kind": self.kind,
        }


_RATE_TAGS = {
    "entry_l1": "sqrt_log_d1d2d3",
    "fiber_group": "sqrt_max_fiberdim_log_ngroups",
    "slice_frob": "sqrt_max_slicearea_log_ngroups",
    "slice_nuclear": "sqrt_max_slicedims_log_ngroups",
    "matricized_nuclear_sum": "sqrt_max_pairwise_products",
    "tensor_spectral_dual_only": "sqrt_sum_dims",
    "pairwise_component_nuclear": "sqrt_max_dim",
}


def width_rate_expression(spec, shape):
    """The constant-free growth rate the width estimate is compared to."""
    d1, d2, d3 = shape
    if spec.kind == "entry_l1":
        return float(np.sqrt(np.log(d1 * d2 * d3)))
    if spec.kind == "fiber_group":
        others = [shape[k] for k in range(3) if k != spec.mode]
        return float(np.sqrt(max(shape[spec.mode], np.log(others[0] * others[1]))))
    if spec.kind == "slice_frob":
        a, b = (shape[k] for k in spec.axes)
        g = shape[spec.group_axis]
        return float(np.sqrt(max(a * b, np.log(g))))
    if spec.kind == "slice_nuclear":
        a, b = (shape[k] for k in spec.axes)
        g = shape[spec.group_axis]
        return float(np.sqrt(max(a, b, np.log(g))))
    if spec.kind == "matricized_nuclear_sum":
        return float(np.sqrt(max(d1 * d2, d2 * d3, d1 * d3)))
    if spec.kind == "tensor_spectral_dual_only":
        return float(np.sqrt(d1 + d2 + d3))
    raise ValueError(spec.kind)


# Gaussian tensors drawn per `_dual_batch` call. A (m,) + shape draw
# consumes the same stream as m draws of `shape`.
_WIDTH_BATCH = 256


def _width_mc(spec, shape, draws, seed, rngs, hopm_restarts, hopm_iters):
    """Mean dual norm of `spec` over `draws` standard Gaussian tensors of
    `shape`, split evenly over the generators `rngs`, one thread each, and
    reduced in generator order whatever the scheduling."""
    shape = tuple(shape)
    if len(shape) != 3:
        raise ValueError("width estimation expects an order-3 shape")
    if draws < 100:
        raise ValueError("draws must be >= 100")
    kind = "pairwise_component_nuclear" if spec == "pairwise" else spec.kind
    base, rem = divmod(draws, len(rngs))

    def run(idx):
        rng = rngs[idx]
        need = base + (1 if idx < rem else 0)
        vals = []
        while need > 0:
            m = min(_WIDTH_BATCH, need)
            g = rng.standard_normal((m,) + shape)
            vals.append(_dual_batch(spec, g, rng, hopm_restarts, hopm_iters))
            need -= m
        return np.concatenate(vals) if vals else np.empty(0)

    if len(rngs) == 1:
        parts = [run(0)]
    else:
        with ThreadPoolExecutor(max_workers=len(rngs)) as pool:
            parts = list(pool.map(run, range(len(rngs))))
    values = np.concatenate(parts)
    return WidthEstimate(
        mean=float(values.mean()),
        std_error=float(values.std(ddof=1) / np.sqrt(len(values))),
        draws=draws,
        lemma_bound_form=_RATE_TAGS[kind],
        seed=seed,
        shape=shape,
        kind=kind,
    )


def gaussian_width_mc(
    spec: RegularizerSpec,
    shape,
    draws=2000,
    seed=0,
    *,
    workers=1,
    hopm_restarts=8,
    hopm_iters=100,
):
    """Estimate the Gaussian width of the unit ball of the penalty, i.e. the
    expected dual norm of an i.i.d. standard Gaussian tensor.

    Draws are split over `workers` counter-based substreams spawned from the
    seed, and the reduction runs in worker order, so results are
    bit-reproducible for a fixed worker count regardless of scheduling.
    The spectral-dual kind lower-bounds each draw's dual with the batched
    alternating maximizer that `hopm_spectral` also runs, from
    `hopm_restarts` random starts of at most `hopm_iters` sweeps each.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    seqs = np.random.SeedSequence(seed).spawn(workers)
    rngs = [np.random.Generator(np.random.Philox(seq)) for seq in seqs]
    return _width_mc(spec, shape, draws, seed, rngs, hopm_restarts, hopm_iters)
