"""Spectral machinery: singular value soft-thresholding, the higher-order
power method for the tensor spectral norm, and Monte-Carlo estimation of
Gaussian widths of penalty unit balls.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, SvdFailure, ZeroTensor, check_count, check_real
from .errors import fields_to_json
from .regularizers import SV_RTOL, RegularizerSpec, _batch_draws, _dual_batch
from .tensor import matricize

__all__ = [
    "matrix_svt",
    "hopm_spectral",
    "WidthEstimate",
    "gaussian_width_mc",
    "width_rate_expression",
]


def matrix_svt(z, t):
    """Singular value soft-thresholding, the prox of the matrix nuclear norm.

    Returns ``U max(S - t, 0) V^T`` for the SVD of `z`, or of each matrix of
    a (..., r, c) stack; singular values below `SV_RTOL` times the largest
    of their matrix are zeroed for rank stability.
    """
    check_real("t", t, 0)
    z = np.asarray(z, dtype=np.float64)
    try:
        u, s, vt = np.linalg.svd(z, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge on shape {z.shape}") from exc
    s = np.maximum(s - t, 0.0)
    s[s < SV_RTOL * s[..., :1]] = 0.0
    return (u * s[..., None, :]) @ vt


# A restart stops at its first sweep that gains less than this.
_HOPM_TOL = 1e-12


def _unit(x):
    """Normalize the last axis of `x` in place (a zero vector stays zero);
    return the norms."""
    norms = np.sqrt(np.einsum("...i,...i->...", x, x))
    x /= np.maximum(norms, 1e-300)[..., None]
    return norms


def _hopm_sweep(g, v, w):
    """One alternating sweep of every restart held for the draws `g` of
    shape (m, d1, d2, d3), from the factors v (m, R, d2) and w (m, R, d3):
    u from (v, w), v from (u, w), w from (u, v), each normalized, plus the
    norm of the contracted w.  Two matmuls per draw against its R factor
    vectors, on views of `g`: P = g x3 w serves u = P v and v = P^T u, and
    Q = u^T g_(1) gives w = v^T Q.
    """
    m, d1, d2, d3 = g.shape
    p = (w @ g.reshape(m, d1 * d2, d3).transpose(0, 2, 1)).reshape(m, -1, d1, d2)
    u = np.einsum("brij,brj->bri", p, v)
    _unit(u)
    v = np.einsum("brij,bri->brj", p, u)
    _unit(v)
    q = (u @ g.reshape(m, d1, d2 * d3)).reshape(m, -1, d2, d3)
    w = np.einsum("brjk,brj->brk", q, v)
    return (u, v, w), _unit(w)


def _hopm(g, restarts, iters, rng, start=None):
    """Alternating maximization of <g_b, u o v o w> over unit factors for
    each tensor g_b of the batch `g` of shape (B, d1, d2, d3).

    Every restart's start is drawn up front, v then w for the whole batch
    per restart, from `rng` (the first restart takes `start` = (v, w) when
    given, without changing it), so the stream does not depend on when a
    restart stops.  All (draw, restart) rows then run as one held set: a
    row stops at its first sweep that gains less than `_HOPM_TOL`, or after
    `iters` sweeps, keeping the larger of its last two values and the
    factors of its last sweep.  A draw leaves the held set at the sweep its
    last restart stops, so each sweep runs only draws with a live restart.
    A sweep's value is the norm of the contracted w, attained by the
    normalized factors.  Returns the best value per tensor and the factors
    (u, v, w) attaining it, from the first restart that reached it.
    """
    if restarts < 1 or iters < 1:
        raise ValueError("HOPM needs restarts >= 1 and iters >= 1")
    g = np.ascontiguousarray(g)
    b, d1, d2, d3 = g.shape
    v, w = np.empty((b, restarts, d2)), np.empty((b, restarts, d3))
    for r in range(restarts):
        if r == 0 and start is not None:
            v[:, 0], w[:, 0] = start
            continue
        for f in (v, w):
            x = rng.standard_normal((b, f.shape[2]))
            f[:, r] = x / np.linalg.norm(x, axis=1, keepdims=True)
    value = np.empty((b, restarts))
    factors = [np.empty((b, restarts, d)) for d in (d1, d2, d3)]
    rows = np.arange(b)  # batch index of each held draw
    live = np.ones((b, restarts), dtype=bool)
    prev = np.zeros((b, restarts))
    for it in range(iters):
        (u, v, w), new = _hopm_sweep(g, v, w)
        stop = live if it == iters - 1 else live & (new - prev < _HOPM_TOL)
        if stop.any():
            i, r = np.nonzero(stop)
            value[rows[i], r] = np.maximum(prev[i, r], new[i, r])
            for out, f in zip(factors, (u, v, w)):
                out[rows[i], r] = f[i, r]
            live &= ~stop
        prev = new
        held = live.any(axis=1)
        if not held.any():
            break
        if not held.all():
            g, v, w, prev, rows, live = (x[held] for x in (g, v, w, prev, rows, live))
    at, first = np.arange(b), value.argmax(axis=1)
    return value[at, first], tuple(f[at, first] for f in factors)


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
        raise ShapeMismatch("expected an order-3 tensor")
    if not np.isfinite(a).all():
        raise ValueError("hopm_spectral needs a finite tensor")
    if not np.any(a):
        raise ZeroTensor("spectral norm of the zero tensor is undefined here")
    if rng is None:
        rng = np.random.default_rng(0)
    unfold = (matricize(a, [k]) for k in (1, 2))
    start = [np.linalg.svd(m, full_matrices=False)[0][None, :, 0] for m in unfold]
    best, factors = _hopm(a[None], restarts, iters, rng, start)
    return {"value": float(best[0]), "factors": tuple(f[0] for f in factors)}


@dataclass(frozen=True)
class WidthEstimate:
    """Monte-Carlo Gaussian width estimate with its sampling error.

    For the tensor-spectral kind the estimate errs low: each draw's value
    is a local maximum found by the higher-order power method, a lower
    bound on that draw's spectral norm, which is NP-hard to compute
    (Hillar & Lim 2013).  The unfolding bound min_k ||G_(k)|| is an upper
    bound but a loose one: over 2000 draws of a d x d x d Gaussian G its
    mean is about 1.15, 1.28 and 1.41 times the power-method mean at
    d = 4, 6 and 8.
    """

    mean: float
    std_error: float
    draws: int
    lemma_bound_form: str
    seed: int
    shape: tuple[int, ...]
    kind: str

    def to_json(self):
        return fields_to_json(self)


_RATE_TAGS = {
    "entry_l1": "sqrt_log_d1d2d3",
    "fiber_group": "sqrt_max_fiberdim_log_ngroups",
    "slice_frob": "sqrt_max_slicearea_log_ngroups",
    "slice_nuclear": "sqrt_max_slicedims_log_ngroups",
    "matricized_nuclear_sum": "sqrt_max_pairwise_products",
    "tensor_spectral_dual_only": "sqrt_sum_dims",
    "pairwise_component_nuclear": "sqrt_max_dim",
}


def _width_sq(spec, shape):
    """The constant-free squared width growth law of the penalty `spec` on
    `shape`: the log group count against the group size for the group
    kinds, where an entry is a group of size 1."""
    d1, d2, d3 = shape
    if spec.kind == "pairwise_component_nuclear":
        return max(d1, d2, d3)
    if spec.kind in ("entry_l1", "fiber_group", "slice_frob", "slice_nuclear"):
        dims = [shape[k] for k in spec.norm_axes]
        log_groups = np.log(d1 * d2 * d3 // math.prod(dims))
        if spec.kind == "slice_nuclear":
            return max(*dims, log_groups)
        return max(math.prod(dims), log_groups)
    if spec.kind == "matricized_nuclear_sum":
        return max(d1 * d2, d2 * d3, d1 * d3)
    if spec.kind == "tensor_spectral_dual_only":
        return d1 + d2 + d3
    raise ValueError(spec.kind)


def width_rate_expression(spec, shape):
    """The constant-free growth rate the width estimate is compared to."""
    return float(np.sqrt(_width_sq(spec, shape)))


def _cores():
    """Cores this process may run on (all cores where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _width_mc(spec, shape, draws, seed, rngs, hopm_restarts, hopm_iters):
    """Mean dual norm of `spec` over `draws` standard Gaussian tensors of
    `shape`, split evenly over the generators `rngs`, run on at most one
    thread per available core, and reduced in generator order whatever the
    scheduling.  Each generator draws in batches of at most 256 tensors and
    2**17 entries (1 MB), so memory stays bounded at any shape; every dual
    but the tensor-spectral one is computed per draw, so its values do not
    depend on the batch size."""
    shape = tuple(shape)
    if len(shape) != 3:
        raise ValueError("width estimation expects an order-3 shape")
    if min(shape) < 1:
        raise ValueError(f"width estimation needs every dimension >= 1, got shape {shape}")
    draws = check_count("draws", draws, 100)
    batch = _batch_draws(shape)
    base, rem = divmod(draws, len(rngs))

    def run(idx):
        rng = rngs[idx]
        need = base + (1 if idx < rem else 0)
        vals = []
        while need > 0:
            m = min(batch, need)
            g = rng.standard_normal((m,) + shape)
            vals.append(_dual_batch(spec, g, rng, hopm_restarts, hopm_iters))
            need -= m
        return np.concatenate(vals) if vals else np.empty(0)

    if len(rngs) == 1:
        parts = [run(0)]
    else:
        with ThreadPoolExecutor(max_workers=min(len(rngs), _cores())) as pool:
            parts = list(pool.map(run, range(len(rngs))))
    values = np.concatenate(parts)
    return WidthEstimate(
        mean=float(values.mean()),
        std_error=float(values.std(ddof=1) / np.sqrt(len(values))),
        draws=draws,
        lemma_bound_form=_RATE_TAGS[spec.kind],
        seed=int(seed),
        shape=shape,
        kind=spec.kind,
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
    seed, run on at most as many threads as there are available cores, and
    the reduction runs in worker order, so results are bit-reproducible for
    a fixed worker count regardless of scheduling or core count.
    The spectral-dual kind lower-bounds each draw's dual with the batched
    alternating maximizer that `hopm_spectral` also runs, so its estimate
    errs low (see :class:`WidthEstimate`), from
    `hopm_restarts` random starts of at most `hopm_iters` sweeps each.  All
    restarts of a batch of draws run together, each stopping on its own
    once a sweep gains less than 1e-12; their starts are drawn from the
    substream up front, per restart for the whole batch, so the stream each
    substream consumes does not depend on when restarts stop.
    A batch holds at most 256 draws and 2**17 entries (1 MB): 100 draws at
    64 x 64 x 64 peak near 40 MB of memory.  Every kind but the
    tensor-spectral one gives the same floats for any batch size; the
    tensor-spectral kind draws its starts after each batch, so its stream
    follows the batch size, which is 256 draws up to 512 entries.
    `draws` must be an integer >= 100.
    """
    workers = check_count("workers", workers, 1)
    seqs = np.random.SeedSequence(seed).spawn(workers)
    rngs = [np.random.Generator(np.random.Philox(seq)) for seq in seqs]
    return _width_mc(spec, shape, draws, seed, rngs, hopm_restarts, hopm_iters)
