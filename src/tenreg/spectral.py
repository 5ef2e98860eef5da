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


def _unit(v):
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _hosvd_starts(a):
    """Leading left singular vectors of the unfoldings, a deterministic
    warm start that captures the dominant rank-one direction."""
    starts = []
    for k in range(3):
        mat = np.moveaxis(a, k, 0).reshape(a.shape[k], -1)
        u, _, _ = np.linalg.svd(mat, full_matrices=False)
        starts.append(u[:, 0])
    return starts


def hopm_spectral(a, restarts=20, iters=200, *, rng=None, tol=1e-12):
    """Lower-bound the tensor spectral norm by alternating maximization.

    Runs one deterministic start from the unfolding singular vectors plus
    `restarts - 1` random restarts, each alternating the three factors until
    the rank-one correlation stops improving.  The returned value is
    attained by the returned unit factors, hence a certified lower bound;
    it is monotone nondecreasing across iterations by construction.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 3:
        raise ZeroTensor("expected an order-3 tensor")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not np.any(a):
        raise ZeroTensor("spectral norm of the zero tensor is undefined here")
    if rng is None:
        rng = np.random.default_rng(0)
    d1, d2, d3 = a.shape
    best_val = -np.inf
    best = None
    hosvd = _hosvd_starts(a)
    for r in range(restarts):
        if r == 0:
            u, v, w = (hosvd[0].copy(), hosvd[1].copy(), hosvd[2].copy())
        else:
            u = _unit(rng.standard_normal(d1))
            v = _unit(rng.standard_normal(d2))
            w = _unit(rng.standard_normal(d3))
        val = 0.0
        for _ in range(iters):
            u = _unit(np.einsum("ijk,j,k->i", a, v, w))
            v = _unit(np.einsum("ijk,i,k->j", a, u, w))
            w = _unit(np.einsum("ijk,i,j->k", a, u, v))
            new = float(np.einsum("ijk,i,j,k->", a, u, v, w))
            if new - val < tol:
                val = max(val, new)
                break
            val = new
        if val > best_val:
            best_val = val
            best = (u.copy(), v.copy(), w.copy())
    return {"value": best_val, "factors": best}


def _hopm_batch(g, restarts, iters, rng, tol=1e-12):
    """Vectorized alternating maximization over a batch of tensors."""
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


def _worker_chunks(draws, workers):
    base, rem = divmod(draws, workers)
    return [base + (1 if w < rem else 0) for w in range(workers)]


def gaussian_width_mc(
    spec: RegularizerSpec,
    shape,
    draws=2000,
    seed=0,
    *,
    workers=1,
    batch=256,
    hopm_restarts=8,
    hopm_iters=100,
):
    """Estimate the Gaussian width of the unit ball of the penalty, i.e. the
    expected dual norm of an i.i.d. standard Gaussian tensor.

    Draws are split over `workers` counter-based substreams spawned from the
    seed, and the reduction runs in worker order, so results are
    bit-reproducible for a fixed worker count regardless of scheduling.
    The spectral-dual kind runs a batched alternating maximizer per draw
    with lighter defaults than the standalone maximizer; raise the restart
    and iteration counts for tighter per-draw certification.
    """
    shape = tuple(shape)
    if len(shape) != 3:
        raise ValueError("width estimation expects an order-3 shape")
    if draws < 100:
        raise ValueError("draws must be >= 100")
    seqs = np.random.SeedSequence(seed).spawn(workers)
    chunks = _worker_chunks(draws, workers)

    def run_worker(idx):
        rng = np.random.Generator(np.random.Philox(seqs[idx]))
        need = chunks[idx]
        vals = []
        while need > 0:
            m = min(batch, need)
            g = rng.standard_normal((m,) + shape)
            vals.append(_dual_batch(spec, g, rng, hopm_restarts, hopm_iters))
            need -= m
        return np.concatenate(vals) if vals else np.empty(0)

    if workers == 1:
        parts = [run_worker(0)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_worker, range(workers)))
    values = np.concatenate(parts)
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / np.sqrt(len(values)))
    return WidthEstimate(
        mean=mean,
        std_error=std_error,
        draws=draws,
        lemma_bound_form=_RATE_TAGS[spec.kind],
        seed=seed,
        shape=shape,
        kind=spec.kind,
    )
