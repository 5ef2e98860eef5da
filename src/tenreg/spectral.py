"""Spectral machinery: singular value soft-thresholding, the higher-order
power method for the tensor spectral norm, and Gaussian widths of penalty
unit balls: exact where the dual is a largest group norm (entries, fibers,
slice Frobenius and nuclear norms), Monte-Carlo for every kind.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SvdFailure, ValidationError
from .errors import JsonFields, check_count, check_finite, check_real, check_shape
from .regularizers import _GROUP_KINDS, SV_RTOL, RegularizerSpec, _batch_draws, _dual_batch
from .tensor import matricize

__all__ = [
    "matrix_svt",
    "hopm_spectral",
    "WidthEstimate",
    "gaussian_width",
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
    if z.ndim < 2:
        raise ValidationError(f"matrix_svt needs a matrix or a stack of them, got shape {z.shape}")
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
    restarts = check_count("restarts", restarts, 1)
    iters = check_count("iters", iters, 1)
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
    a = check_finite("tensor entries", a)
    if a.ndim != 3:
        raise ValidationError("expected an order-3 tensor")
    if not np.any(a):
        raise ValidationError("spectral norm of the zero tensor is undefined here")
    if rng is None:
        rng = np.random.default_rng(0)
    unfold = (matricize(a, [k]) for k in (1, 2))
    start = [np.linalg.svd(m, full_matrices=False)[0][None, :, 0] for m in unfold]
    best, factors = _hopm(a[None], restarts, iters, rng, start)
    return {"value": float(best[0]), "factors": tuple(f[0] for f in factors)}


@dataclass(frozen=True)
class WidthEstimate(JsonFields):
    """A Gaussian width with its sampling error: a Monte-Carlo estimate, or
    an exact width, which reads `std_error` 0 and `draws` 0.  Its `kind`,
    the penalty's, names the growth law it is read against (`_width_sq`).

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
    seed: int
    shape: tuple[int, ...]
    kind: str

    @classmethod
    def _of(cls, spec, shape, seed, mean, std_error, draws):
        """The width of the penalty `spec` on `shape` at `seed`."""
        return cls(mean, std_error, draws, int(seed), shape, spec.kind)


def _width_sq(spec, shape):
    """The constant-free squared width growth law of the penalty `spec` on
    `shape`: the log group count against the group size for the group
    kinds, where an entry is a group of size 1.  The one home of the laws:
    a width table's rate expression and a rate sweep's predicted rate
    (`harness.predicted_rate`) both read it."""
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
    raise ValidationError(spec.kind)


def width_rate_expression(spec, shape):
    """The constant-free growth rate the width estimate is compared to."""
    return float(np.sqrt(_width_sq(spec, shape)))


# The draws of a Monte-Carlo width when its caller gives none.
WIDTH_DRAWS = 2000


def _width_inputs(shape, draws, seed):
    """Hold a width's inputs to their rules, for an exact width as for a drawn
    one, in one order: `seed` (that of the draws' stream), `shape`, `draws`.
    Returns them checked, the seed as its SeedSequence."""
    seq = np.random.SeedSequence(check_count("seed", seed, 0))
    return seq, check_shape("shape", shape), check_count("draws", draws, 100)


def gaussian_width_mc(
    spec: RegularizerSpec,
    shape,
    draws=WIDTH_DRAWS,
    seed=0,
    *,
    hopm_restarts=8,
    hopm_iters=100,
):
    """Estimate the Gaussian width of the unit ball of the penalty, i.e. the
    expected dual norm of an i.i.d. standard Gaussian tensor.

    Every draw comes from one counter-based (Philox) stream on the seed's
    own SeedSequence, one rule for every kind, so the estimate is a function
    of the seed and its inputs alone.
    The spectral-dual kind lower-bounds each draw's dual with the batched
    alternating maximizer that `hopm_spectral` also runs, so its estimate
    errs low (see :class:`WidthEstimate`), from
    `hopm_restarts` random starts of at most `hopm_iters` sweeps each.  All
    restarts of a batch of draws run together, each stopping on its own
    once a sweep gains less than 1e-12; their starts are drawn from the
    stream up front, per restart for the whole batch, so the stream does
    not depend on when restarts stop.
    A batch holds at most 256 draws and 2**17 entries (1 MB): 100 draws at
    64 x 64 x 64 peak near 40 MB of memory.  Every kind but the
    tensor-spectral one gives the same floats for any batch size, since its
    dual is computed per draw; the tensor-spectral kind draws its starts
    after each batch, so its stream follows the batch size, which is 256
    draws up to 512 entries.  `draws` must be an integer >= 100.
    """
    seq, shape, draws = _width_inputs(shape, draws, seed)
    rng = np.random.Generator(np.random.Philox(seq))
    batch = _batch_draws(shape)
    vals = []
    for start in range(0, draws, batch):
        g = rng.standard_normal((min(batch, draws - start),) + shape)
        vals.append(_dual_batch(spec, g, rng, hopm_restarts, hopm_iters))
    values = np.concatenate(vals)
    std_error = float(values.std(ddof=1) / np.sqrt(len(values)))
    return WidthEstimate._of(spec, shape, seed, float(values.mean()), std_error, draws)


# The kinds with an exact width: the dual norm of a standard Gaussian tensor
# is the largest of m i.i.d. group norms whose law has a closed form.
_EXACT_KINDS = _GROUP_KINDS + ("slice_nuclear",)
# The exact widths integrate by a composite Gauss-Legendre rule of
# `_QUAD_PANELS` equal panels of `_QUAD_NODES` nodes (more panels for slices
# of over 100 rows).  Twice the panels moves no width the tests check (groups
# of 1 to 256 entries, slices of 1 x 1 to 120 x 120 and 8 x 3000) by more
# than 1e-10.
_QUAD_PANELS = 8
_QUAD_NODES = 64
# An integrand is cut where concentration bounds its lost tail by
# exp(-_TAIL_SPAN**2 / 2) = exp(-40).
_TAIL_SPAN = math.sqrt(80.0)
# Terms of the chi tail series formed at once (a 1 MB block at 512 nodes).
_TAIL_TERMS = 256
_ERFC = np.frompyfunc(math.erfc, 1, 1)


@functools.cache
def _legendre():
    """Gauss-Legendre nodes x and weights w on [-1, 1], and the matrix S
    with (S f(x))_k = the integral of f from -1 to x_k, exact for
    polynomials of degree below `_QUAD_NODES`.  Solved for once, when the
    first exact width is asked for, and read-only, since every caller
    shares them."""
    legendre = np.polynomial.legendre
    x, w = legendre.leggauss(_QUAD_NODES)
    vander = legendre.legvander(x, _QUAD_NODES - 1)
    # Legendre coefficient j of f is (j + 1/2) sum_k w_k P_j(x_k) f(x_k)
    coeffs = (np.arange(_QUAD_NODES) + 0.5)[:, None] * vander.T * w
    antiderivatives = legendre.legval(x, legendre.legint(np.eye(_QUAD_NODES), lbnd=-1)).T
    rule = x, w, antiderivatives @ coeffs
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _panels(lo, hi, scale=1):
    """The nodes of the composite rule of `scale` times `_QUAD_PANELS`
    panels on [lo, hi], one row per panel, and the half width of a panel."""
    x = _legendre()[0]
    count = scale * _QUAD_PANELS
    half = (hi - lo) / (2 * count)
    mids = lo + half * (2 * np.arange(count) + 1)
    return mids[:, None] + half * x, half


def _max_mean(log_cdf, m, half, lo=0.0):
    """E max of m i.i.d. nonnegative variables, lo + int_lo^hi 1 - F^m, by
    the composite rule from log F at its nodes (one row per panel); F = 1
    below lo."""
    return lo + half * float((-np.expm1(m * log_cdf) @ _legendre()[1]).sum())


def _chi_tail(k, t):
    """P(chi_k > t) at each t > 0 of the array `t`: from Q_1 = erfc(t/sqrt 2)
    for odd k or Q_0 = 0 for even k, by Q_{e+2} = Q_e + t^e exp(-t^2/2) /
    (2^(e/2) Gamma(e/2 + 1)) (Abramowitz & Stegun 26.4.4-5).  Every term is
    at most 1 and is formed in log space, so none overflows at any k or t,
    and they are summed in blocks, so memory does not grow with k."""
    q = _ERFC(t / math.sqrt(2.0)).astype(float) if k % 2 else np.zeros_like(t)
    log_t, half_sq = np.log(t), t * t / 2
    exponents = range(k % 2, k - 1, 2)
    for i in range(0, len(exponents), _TAIL_TERMS):
        e = np.array(exponents[i : i + _TAIL_TERMS], dtype=float)
        log_norm = e / 2 * math.log(2.0) + np.array([math.lgamma(v / 2 + 1) for v in e])
        q += np.exp(log_t[..., None] * e - half_sq[..., None] - log_norm).sum(axis=-1)
    return q


def _chi_max_mean(k, m):
    """E max of m i.i.d. chi_k.  Each is 1-Lipschitz in its Gaussian, so it
    concentrates about mu = E chi_k: below lo = mu - sqrt(80) the integrand
    1 - (1 - Q_k)^m is 1 to within exp(-40), and beyond hi = mu + sqrt(80 +
    2 log m) its integral is below exp(-40)."""
    mu = math.sqrt(2.0) * math.exp(math.lgamma((k + 1) / 2) - math.lgamma(k / 2))
    lo = max(0.0, mu - _TAIL_SPAN)
    t, half = _panels(lo, mu + math.sqrt(_TAIL_SPAN**2 + 2 * math.log(m)))
    # a tail rounded to 1 gives log1p(-1) = -inf, so the integrand 1
    with np.errstate(divide="ignore"):
        log_cdf = np.log1p(-np.minimum(_chi_tail(k, t), 1.0))
    return _max_mean(log_cdf, m, half, lo)


def _running_integral(values, half):
    """The integral of `values` (one row of nodes per panel, then any axes)
    from the rule's left end to each node, and over the whole rule."""
    w, s = _legendre()[1:]
    flat = values.reshape(values.shape[:2] + (-1,))
    totals = half * (w @ flat)
    before = np.cumsum(totals, axis=0) - totals
    within = before[:, None] + half * (s @ flat)
    return within.reshape(values.shape), totals.sum(axis=0).reshape(values.shape[2:])


def _sigma_max_log_cdf(r, c, lo, hi):
    """log P(sigma_max(G) <= t) for an r x c standard Gaussian matrix G,
    r <= c, at the nodes t of the composite rule on [lo, hi], and the half
    width of a panel.

    The eigenvalues y of G G^T have the joint density of the real Wishart
    law, proportional to prod y_j^alpha e^(-y_j / 2) times the Vandermonde
    product, alpha = (c - r - 1) / 2.  By de Bruijn (1955) the chance that
    all lie in [lo^2, x] is Pf A(x), with the skew matrix A_ij(x) =
    int_{lo^2}^x (Psi_i psi_j - Psi_j psi_i) dy, bordered by Psi_i(x) for
    odd r; psi_i is y^alpha e^(-y/2) times any polynomial of degree i - 1
    and Psi_i its integral from lo^2.  Divided by Pf A(hi^2), that is the chance
    given that sigma_min >= lo and sigma_max <= hi, which the caller's
    bounds make P(sigma_max <= t) to within exp(-40).  Monomials make A too
    ill-conditioned beyond 12 x 12 slices, so the polynomials are the
    orthonormal Laguerre ones of parameter c - r; then psi_i is bounded,
    both integrals run over t by the rule's own antiderivative matrix, and
    the ratio is Pf^2 = det, by `slogdet` panel by panel, so memory stays
    at one panel of r x r matrices.  The basis functions oscillate about r
    times over [lo, hi], so the rule takes one more set of panels per 100
    rows: twice the nodes then agree to within 1e-10 up to 300 x 300.
    """
    t, half = _panels(lo, hi, -(-r // 100))
    a, y = c - r, t * t
    log_env = (a - 1) / 2 * np.log(y) - y / 2
    psi = np.empty(t.shape + (r,))  # psi_i(t^2) d(t^2)/dt, i = 1..r
    psi[..., 0] = np.exp(log_env - log_env.max()) * 2 * t
    for k in range(r - 1):  # the orthonormal three-term recurrence
        lower = psi[..., k - 1] * math.sqrt(k * (k + a)) if k else 0.0
        psi[..., k + 1] = ((2 * k + 1 + a - y) * psi[..., k] - lower) / math.sqrt(
            (k + 1) * (k + 1 + a)
        )
    big, big_end = _running_integral(psi, half)
    size = r + r % 2
    mats = np.zeros((t.shape[1], size, size))
    end = np.zeros((size, size))
    log_det = np.empty(t.shape)
    for p in range(len(t)):
        g = big[p, :, :, None] * psi[p, :, None, :]
        g -= g.transpose(0, 2, 1)
        inner, total = _running_integral(g[None], half)
        mats[:, :r, :r] = end[:r, :r] + inner[0]
        if r % 2:
            mats[:, :r, r], mats[:, r, :r] = big[p], -big[p]
        with np.errstate(divide="ignore"):  # a det that underflows to 0
            sign, log_det[p] = np.linalg.slogdet(mats)
        log_det[p][sign <= 0] = -np.inf  # Pf^2 rounded to or through zero
        end[:r, :r] += total
    if r % 2:
        end[:r, r], end[r, :r] = big_end, -big_end
    return np.minimum((log_det - np.linalg.slogdet(end)[1]) / 2, 0.0), half


def _sigma_max_mean(r, c, m):
    """E max of the largest singular values of m i.i.d. r x c standard
    Gaussian matrices, r <= c.  sqrt(c) - sqrt(r) <= E sigma_min and
    E sigma_max <= sqrt(c) + sqrt(r) (Gordon), and both are 1-Lipschitz, so
    below lo = sqrt(c) - sqrt(r) - sqrt(80) the integrand is 1, and beyond
    hi = sqrt(c) + sqrt(r) + sqrt(80 + 2 log m) its integral 0, each to
    within exp(-40)."""
    lo = max(0.0, math.sqrt(c) - math.sqrt(r) - _TAIL_SPAN)
    hi = math.sqrt(r) + math.sqrt(c) + math.sqrt(_TAIL_SPAN**2 + 2 * math.log(m))
    log_cdf, half = _sigma_max_log_cdf(r, c, lo, hi)
    return _max_mean(log_cdf, m, half, lo)


def gaussian_width(spec, shape):
    """The exact Gaussian width of the unit ball of the penalty `spec` on
    `shape`, for the kinds whose dual is a largest group norm:
    ``entry_l1``, ``fiber_group``, ``slice_frob`` and ``slice_nuclear``.

    The dual norm of a standard Gaussian tensor is then the largest of m
    i.i.d. group norms, m the group count, so the width is E max =
    int_0^inf 1 - F^m dt with F the law of one norm: chi_k for a group of k
    entries (1 for an entry, the fiber length, the slice area), the largest
    singular value of an r x c Gaussian matrix for a slice's nuclear norm.
    The integral runs by a composite Gauss-Legendre rule over the range
    outside which concentration bounds its error by exp(-40); nothing is
    drawn, and twice the nodes agree to within 1e-10 at every tested shape.
    """
    if spec.kind not in _EXACT_KINDS:
        raise ValidationError(f"no exact width for {spec.kind}; use gaussian_width_mc")
    shape = check_shape("shape", shape)
    dims = [shape[ax] for ax in spec.norm_axes]
    m = math.prod(shape) // math.prod(dims)
    if spec.kind != "slice_nuclear":
        return _chi_max_mean(math.prod(dims), m)
    return _sigma_max_mean(*sorted(dims), m)


def _exact_estimate(spec, shape, draws, seed):
    """The exact width of the penalty `spec` on `shape` as a width entry:
    `std_error` 0 and `draws` 0.  Its inputs pass :func:`_width_inputs`,
    though nothing is drawn, so a caller that may take either width refuses
    the same inputs, in the same order."""
    shape = _width_inputs(shape, draws, seed)[1]
    return WidthEstimate._of(spec, shape, seed, gaussian_width(spec, shape), 0.0, 0)
