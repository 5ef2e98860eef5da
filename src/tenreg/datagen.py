"""Synthetic instance generators: sparsity and low-rank truth classes,
Gaussian designs, pairwise interaction truths, and stationary vector
autoregressive simulation with spectral extrema computation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    JsonFields,
    ValidationError,
    check_choice,
    check_count,
    check_finite,
    check_real,
    check_seed,
    check_shape,
    check_split,
    fields_from_json,
    is_int,
    is_real,
    json_tuple,
)
from .regularizers import _fiber_mode, _group_axis, _group_norms, _groups
from .solver import RegressionProblem, SufficientStats, _statistics, expand_pairwise
from .tensor import matricize

__all__ = [
    "ModelClassSpec",
    "gen_truth",
    "gen_pairwise_components",
    "class_certificate",
    "gen_problem",
    "gen_sample",
    "gen_sufficient_stats",
    "gen_samples",
    "VarModel",
    "gen_var_model",
    "var_truth",
    "gen_var_series",
    "gen_var_panel",
    "var_spectral_extrema",
]

_CLASS_KINDS = (
    "theta1",
    "theta2",
    "theta3",
    "theta4",
    "theta5",
    "t1",
    "t2",
    "t3",
    "t4",
)

_RANK_TOL = 1e-9

# The support classes, sparse in groups spanning their `norm_axes`, and the
# name of their groups in messages and certificate keys.
_SUPPORT_GROUPS = {"theta1": "entries", "theta2": "fibers", "theta3": "slices",
                   "t1": "slices", "t3": "interactions"}


def _check_magnitude(magnitude):
    """Refuse a truth scale that is not a finite number (or is a bool)."""
    if not is_real(magnitude):
        raise ValidationError(f"magnitude must be a finite number, got {magnitude!r}")


@dataclass(frozen=True)
class ModelClassSpec(JsonFields):
    """Which structured truth class to draw from, and with what parameters.

    `s` is a support budget (entries, fibers, or slices), `r` a rank budget.
    `mode` picks the fiber axis for theta2; `axes` the slice-spanning pair
    for the slice classes, rows along ``axes[0]`` (the multi-response t1 and
    t2 always slice along (1, 2), and the VAR class t3 is sparse in the
    fibers along its lag axis 1).  Magnitudes default to +-1 entries for the
    sparsity classes and unit-Frobenius components for the rank classes so
    error norms are comparable across classes.
    """

    kind: str
    shape: tuple[int, ...]
    s: int | None = None
    r: int | None = None
    magnitude: float = 1.0
    mode: int = 0
    axes: tuple[int, int] = (0, 1)

    def __post_init__(self):
        check_choice("class kind", self.kind, _CLASS_KINDS)
        check_shape("shape", self.shape)
        for name, v in (("s", self.s), ("r", self.r)):
            if not (v is None or is_int(v)):
                raise ValidationError(f"{name} must be null or an integer, got {v!r}")
        _check_magnitude(self.magnitude)
        _fiber_mode(self.mode)
        _group_axis(self.axes)

    @property
    def norm_axes(self):
        """The axes each group of the class spans: none for the entries of
        theta1, the fiber mode for theta2, the lag axis for t3, (1, 2) for
        the multi-response t1 and t2, and `axes` for the other slice
        classes."""
        slices = (1, 2) if self.kind in ("t1", "t2") else self.axes
        return {"theta1": (), "theta2": (self.mode,), "t3": (1,)}.get(self.kind, slices)

    @classmethod
    def from_json(cls, obj):
        return fields_from_json(
            cls, obj, "model class", shape=json_tuple, axes=json_tuple
        )


_SIGNS = np.array([-1.0, 1.0])


def _signs(rng, size):
    """+-1 entries of the given size, one fair integer draw each: the values
    and generator state of `Generator.choice` over the two signs."""
    return _SIGNS[rng.integers(0, 2, size=size)]


def _centered_low_rank(rng, d1, d2, r):
    """Rank-r matrix with zero row and column sums, unit Frobenius norm."""
    u = rng.standard_normal((d1, r))
    v = rng.standard_normal((d2, r))
    u -= u.mean(axis=0, keepdims=True)
    v -= v.mean(axis=0, keepdims=True)
    m = u @ v.T
    return m / np.linalg.norm(m)


def gen_pairwise_components(spec, seed):
    """The three centered rank-r component matrices of a pairwise truth."""
    d1, d2, d3 = spec.shape
    r = spec.r
    if r is None or r < 1 or r > min(spec.shape) - 1:
        raise ValidationError("pairwise rank must satisfy 1 <= r <= min(d)-1")
    rng = np.random.default_rng(check_seed(seed))
    return (
        spec.magnitude * _centered_low_rank(rng, d1, d2, r),
        spec.magnitude * _centered_low_rank(rng, d1, d3, r),
        spec.magnitude * _centered_low_rank(rng, d2, d3, r),
    )


def gen_truth(spec, seed):
    """Draw a truth certified to belong to the class.

    Raises ``ValidationError`` when the parameters cannot be met at the
    given shape.  Every generated tensor passes :func:`class_certificate`.
    """
    rng = np.random.default_rng(check_seed(seed))
    shape = spec.shape

    if spec.kind == "t3":  # a stable VAR model, sparse in its lag fibers
        return var_truth(_class_var_model(spec, seed))

    if spec.kind in _SUPPORT_GROUPS:
        out = np.zeros(shape)
        groups = _groups(out, spec.norm_axes)
        lead = groups.shape[: 3 - len(spec.norm_axes)]
        count = math.prod(lead)
        s = spec.s
        if s is None or s < 0 or s > count:
            name = _SUPPORT_GROUPS[spec.kind]
            raise ValidationError(f"need 0 <= s <= {count} {name}")
        chosen = rng.choice(count, size=s, replace=False)
        signs = _signs(rng, (s,) + groups.shape[len(lead):])
        groups[np.unravel_index(chosen, lead)] = spec.magnitude * signs
        return out

    if spec.kind in ("theta4", "t2"):
        out = np.zeros(shape)
        slices = _groups(out, spec.norm_axes)
        ngroups, da, db = slices.shape
        r = spec.r
        max_rank = min(da, db) * ngroups
        if r is None or r < 1 or r > max_rank:
            raise ValidationError(f"need 1 <= r <= {max_rank}")
        # split the rank budget over as few slices as possible
        parts = []
        left = r
        while left > 0:
            take = min(left, min(da, db))
            parts.append(take)
            left -= take
        chosen = rng.choice(ngroups, size=len(parts), replace=False)
        for j, rj in zip(chosen, parts):
            u = np.linalg.qr(rng.standard_normal((da, rj)))[0]
            v = np.linalg.qr(rng.standard_normal((db, rj)))[0]
            sv = 1.0 + rng.random(rj)
            m = (u * sv) @ v.T
            m *= spec.magnitude / np.linalg.norm(m)
            slices[j] = m
        return out

    if spec.kind == "theta5":
        r = spec.r
        if r is None or r < 1 or r > min(shape):
            raise ValidationError(f"need 1 <= r <= {min(shape)}")
        factors = [np.linalg.qr(rng.standard_normal((dk, r)))[0] for dk in shape]
        core = rng.standard_normal((r, r, r))
        out = np.einsum("abc,ia,jb,kc->ijk", core, *factors)
        return spec.magnitude * out / np.linalg.norm(out)

    if spec.kind == "t4":
        comps = gen_pairwise_components(spec, seed)
        return expand_pairwise(comps, shape)

    raise ValidationError(spec.kind)


def _num_rank(mat):
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int((sv > _RANK_TOL * sv[0]).sum())


def class_certificate(spec, truth):
    """Exact membership check for a generated truth; returns a report dict
    with an overall ``ok`` flag."""
    t = np.asarray(truth, dtype=np.float64)
    shape = spec.shape
    if t.shape != tuple(shape):
        return {"ok": False, "reason": "shape mismatch"}

    if spec.kind in _SUPPORT_GROUPS:
        nnz = int(np.count_nonzero(_group_norms(t, spec.norm_axes)))
        return {"ok": nnz <= spec.s, f"nonzero_{_SUPPORT_GROUPS[spec.kind]}": nnz}
    if spec.kind in ("theta4", "t2"):
        ranks = [_num_rank(m) for m in _groups(t, spec.norm_axes)]
        return {"ok": sum(ranks) <= spec.r, "slice_ranks": ranks}
    if spec.kind == "theta5":
        ranks = [_num_rank(matricize(t, [k])) for k in range(3)]
        return {"ok": max(ranks) <= spec.r, "tucker_ranks": ranks}
    if spec.kind == "t4":
        # project back onto the centered interaction subspaces
        grand = t.mean()
        comps = [
            m - m.mean(0, keepdims=True) - m.mean(1, keepdims=True) + grand
            for m in (t.mean(axis=2), t.mean(axis=1), t.mean(axis=0))
        ]
        resid = float(np.abs(expand_pairwise(comps, shape) - t).max())
        ranks = [_num_rank(m) for m in comps]
        centering = max(float(np.abs(m.sum(axis=ax)).max()) for m in comps for ax in (0, 1))
        ok = resid < 1e-10 and centering < 1e-10 and max(ranks) <= spec.r
        return {
            "ok": ok,
            "component_ranks": ranks,
            "centering_residual": centering,
            "reconstruction_residual": resid,
        }
    return {"ok": False, "reason": f"unknown kind {spec.kind}"}


def _check_sample(truth, n, split, noise_sigma, seed):
    """The checks both Gaussian samplers share; gives `truth` as floats and its generator."""
    check_count("n", n, 1)
    truth = np.asarray(truth, dtype=np.float64)
    check_real("noise_sigma", noise_sigma, 0)
    check_split(split, truth.ndim)
    return truth, np.random.default_rng(check_seed(seed))


def gen_problem(truth, n, split, noise_sigma, design="iid", seed=0):
    """Sample a regression problem from a truth tensor.

    Covariates are i.i.d. standard Gaussian, or ``Z @ factor.T`` when a
    square covariance factor is supplied.  Responses follow the linear
    model with i.i.d. centered Gaussian noise of scale `noise_sigma`.
    """
    truth, rng = _check_sample(truth, n, split, noise_sigma, seed)
    cov_shape = truth.shape[:split]
    resp_shape = truth.shape[split:]
    dim_cov = int(np.prod(cov_shape))
    z = rng.standard_normal((n, dim_cov))
    if isinstance(design, str):
        if design != "iid":
            raise ValidationError(f"unknown design {design!r}")
        x2 = z
    else:
        factor = np.asarray(design, dtype=np.float64)
        if factor.shape != (dim_cov, dim_cov) or not np.isfinite(factor).all():
            raise ValidationError(
                f"factor must be a finite {dim_cov}x{dim_cov} matrix"
            )
        x2 = z @ factor.T
    preds = x2 @ truth.reshape(dim_cov, -1)
    noise = rng.standard_normal(preds.shape) * noise_sigma
    responses = (preds + noise).reshape((n,) + resp_shape)
    return RegressionProblem(
        covariates=x2.reshape((n,) + cov_shape),
        responses=responses,
        split=split,
        noise_sigma=noise_sigma,
        truth=truth,
    )


def gen_sufficient_stats(truth, n, split, noise_sigma, seed=0):
    """Draw the sufficient statistics of an i.i.d. :func:`gen_problem` sample
    with the identity design, without drawing the sample.

    The rows [x; e] of covariates and standard noise are i.i.d. N(0, I), so
    their Gram matrix W is Wishart(n, I_{d+q}).  Bartlett's decomposition
    draws it exactly as W = L L^T, with L lower triangular, ``L_ii^2`` a
    chi-square with n - i degrees of freedom and standard normals below the
    diagonal (Bartlett 1933; Odell & Feiveson 1966): d + q chi-squares and
    (d+q)(d+q-1)/2 normals, whatever n is.  The responses are Y = [X E] B
    with ``B = [truth; sigma I]``, so ``X^T X = W_xx``,
    ``X^T Y = W_xx truth + sigma W_xe`` and ``||Y||^2 = <B, W B>``.
    Takes n > d + q, the cells :func:`gen_samples` draws this way; W is
    nonsingular there.
    """
    truth, rng = _check_sample(truth, n, split, noise_sigma, seed)
    dim_cov = math.prod(truth.shape[:split])
    dim_resp = math.prod(truth.shape[split:])
    dim = dim_cov + dim_resp
    if n <= dim:
        raise ValidationError(f"the Wishart draw needs n > d + q = {dim}, got n = {n}")
    low = np.diag(np.sqrt(rng.chisquare(n - np.arange(dim))))
    low[np.tri(dim, dim, -1, dtype=bool)] = rng.standard_normal(dim * (dim - 1) // 2)
    w = low @ low.T
    b = np.vstack([truth.reshape(dim_cov, dim_resp), noise_sigma * np.eye(dim_resp)])
    wb = w @ b
    return SufficientStats(
        gram=w[:dim_cov, :dim_cov].copy(),
        xty=wb[:dim_cov].reshape(truth.shape),
        yty=float((b * wb).sum()),
        n=n,
        split=split,
        truth=truth,
    )


def gen_sample(spec, n, split, noise_sigma, seeds):
    """The sample of size `n` of the class `spec` at the (truth seed, sample
    seed) pair `seeds`: for the VAR class t3 a series of lag windows of
    :func:`gen_var_series`, in the one VAR layout (:func:`_check_var_layout`),
    and for every other class a :func:`gen_problem` sample of its
    :func:`gen_truth` truth."""
    tseed, pseed = seeds
    _check_var_layout(spec, split, noise_sigma)
    if spec.kind == "t3":
        return gen_var_series(_class_var_model(spec, tseed), n, seed=pseed)
    return gen_problem(gen_truth(spec, tseed), n, split, noise_sigma, seed=pseed)


def gen_samples(spec, n, split, noise_sigma, seeds):
    """The samples of one rate cell, one per (truth seed, sample seed) pair
    of `seeds`, as an iterator in that order, each equal to the
    :func:`gen_sample` sample of its pair.

    The VAR class t3 draws every model first and simulates the series of
    :func:`gen_var_panel` in lockstep, at any n; past the m p lag
    coordinates a solver would reduce a series to, it yields each
    series' statistics, all a solve reads of it, so the lag design is
    copied once and dropped.  A class with i.i.d. rows draws each sample
    only when it is asked for, unless n exceeds d + q, the covariate and
    response dimensions: it then draws each truth by :func:`gen_truth` and
    its sufficient statistics by :func:`gen_sufficient_stats`.
    """
    check_count("n", n, 1)
    check_real("noise_sigma", noise_sigma, 0)
    check_split(split, len(spec.shape))
    _check_var_layout(spec, split, noise_sigma)
    dims = math.prod(spec.shape[:split])
    if spec.kind == "t3":
        models = [_class_var_model(spec, tseed) for tseed, _ in seeds]
        panel = gen_var_panel(models, n, [pseed for _, pseed in seeds])
        # `map`, not a generator expression: its frame would hold the last
        # series, and so its lockstep group, while the next group is simulated
        return panel if n <= dims else map(_series_statistics, panel)
    if n <= dims + math.prod(spec.shape[split:]):
        return (gen_sample(spec, n, split, noise_sigma, pair) for pair in seeds)
    return (
        gen_sufficient_stats(gen_truth(spec, tseed), n, split, noise_sigma, seed=pseed)
        for tseed, pseed in seeds
    )


def _series_statistics(problem):
    """The :class:`SufficientStats` of a sample, by the one reduction a
    solver makes of data with n > d (``solver._statistics``), so a solve on
    them returns the estimate of the sample bit for bit."""
    gram, xty, yty = _statistics(problem.covariates, problem.responses)
    return SufficientStats(
        gram=gram,
        xty=xty.reshape(problem.truth_shape),
        yty=yty,
        n=problem.n,
        split=problem.split,
        truth=problem.truth,
    )


# ---------------------------------------------------------------------------
# Vector autoregressive models
# ---------------------------------------------------------------------------


def _companion(coeffs):
    p, m, _ = coeffs.shape
    top = np.concatenate(list(coeffs), axis=1)
    if p == 1:
        return top
    eye = np.eye(m * (p - 1))
    zero = np.zeros((m * (p - 1), m))
    return np.vstack([top, np.hstack([eye, zero])])


def _spectral_radius(coeffs):
    return float(np.abs(np.linalg.eigvals(_companion(coeffs))).max())


def _rescale_lags(coeffs, rho, target):
    """Scale lag j of `coeffs` by (target / rho)^j, in place, which moves a
    companion spectral radius of `rho` to `target`."""
    scale = target / rho
    for j in range(coeffs.shape[0]):
        coeffs[j] *= scale ** (j + 1)


@dataclass
class VarModel(JsonFields):
    """Stable VAR(p) with identity innovation covariance.

    `coeffs` stacks the lag matrices as shape (p, m, m).  Construction
    rejects a non-finite or unstable coefficient set (companion spectral
    radius at least 1) with ``ValidationError``; :func:`gen_var_model`
    rescales its draws before it builds one.
    """

    coeffs: np.ndarray
    burn_in: int | None = None

    def __post_init__(self):
        self.coeffs = check_finite("coeffs", self.coeffs)
        if self.coeffs.ndim != 3 or self.coeffs.shape[1] != self.coeffs.shape[2]:
            raise ValidationError("coeffs must have shape (p, m, m)")
        if self.burn_in is not None:
            self.burn_in = check_count("burn_in", self.burn_in, 0)
        rho = self.spectral_radius()
        if rho >= 1.0:
            raise ValidationError(f"companion spectral radius {rho:.4f} >= 1")
        if self.burn_in is None:
            self.burn_in = 500 + 10 * self.coeffs.shape[0]

    @property
    def p(self):
        return self.coeffs.shape[0]

    @property
    def m(self):
        return self.coeffs.shape[1]

    def spectral_radius(self):
        return _spectral_radius(self.coeffs)

    @classmethod
    def from_json(cls, obj):
        return fields_from_json(cls, obj, "VAR model")


def gen_var_model(m, p, s, magnitude=1.0, seed=0, target_rho=0.75):
    """Random stable VAR(p) with at most `s` nonzero interaction fibers.

    Each chosen (output, input) cell is filled across all lags with
    +-magnitude entries, then the lag matrices are rescaled so the companion
    spectral radius equals `target_rho`, in [0, 1).
    """
    m, p, s = (check_count(name, v, 1) for name, v in (("m", m), ("p", p), ("s", s)))
    if s > m * m:
        raise ValidationError(f"need 1 <= s <= {m * m}")
    _check_magnitude(magnitude)
    if not (is_real(target_rho) and 0 <= target_rho < 1):
        raise ValidationError(f"target_rho must be a finite number in [0, 1), got {target_rho!r}")
    rng = np.random.default_rng(check_seed(seed))
    coeffs = np.zeros((p, m, m))
    cells = rng.choice(m * m, size=s, replace=False)
    for c in cells:
        k, l = divmod(int(c), m)
        coeffs[:, k, l] = magnitude * _signs(rng, p)
    rho = _spectral_radius(coeffs)
    if rho > 0:
        _rescale_lags(coeffs, rho, target_rho)
    return VarModel(coeffs=coeffs)


def _class_var_model(spec, seed):
    """The VAR model of a t3 class, whose truth has shape (m, p, m)."""
    m, p, m2 = spec.shape
    if m != m2:
        raise ValidationError("VAR truth shape must be (m, p, m)")
    return gen_var_model(m, p, spec.s, magnitude=spec.magnitude, seed=seed)


def var_truth(model):
    """Problem-layout coefficient tensor of shape (m, p, m).

    Entry (l, j, k) is the effect of variable l at lag j+1 on variable k,
    so the covariate lag window contracts against the first two modes.
    """
    return np.transpose(model.coeffs, (2, 0, 1))


def gen_var_series(model, n, seed=0):
    """Simulate the process and package consecutive lag windows.

    After dropping the burn-in, sample t has covariate X_t of shape (m, p)
    with X_t[l, j] the value of variable l at lag j+1, and response x_t, so
    the regression truth is :func:`var_truth`.  Samples are consecutive and
    therefore dependent by construction.  This is the one-series case of
    :func:`gen_var_panel`.
    """
    return next(gen_var_panel([model], n, [seed]))


def gen_var_panel(models, n, seeds):
    """Simulate one series per model and yield their problems in order.

    Problem i equals ``gen_var_series(models[i], n, seeds[i])`` exactly,
    whatever the other models are.  The models must share (p, m, burn_in).
    The series run in lockstep, in groups of at most p + 2 split evenly,
    the number of series-sized arrays that stepping one series alone holds
    (innovations, series and p lag columns).  A group is simulated only
    when its first problem is asked for, and the panel lets a group's
    series go before it simulates the next group, so a caller that drops
    each problem before asking for the next holds one group at a time.
    Each covariate array is a read-only lag-window view of its series.
    """
    models, seeds = list(models), [check_seed(seed) for seed in seeds]
    check_count("n", n, 1)
    if not models:
        raise ValidationError("need at least one VAR model")
    if len(seeds) != len(models):
        raise ValidationError(
            f"need one seed per model, got {len(seeds)} for {len(models)} models"
        )
    if len({(model.p, model.m, model.burn_in) for model in models}) > 1:
        raise ValidationError("panel models must share their p, m and burn_in")
    count = math.ceil(len(models) / (models[0].p + 2))
    groups = np.array_split(np.arange(len(models)), count)
    return itertools.chain.from_iterable(
        _var_group([models[i] for i in group], n, [seeds[i] for i in group])
        for group in groups
    )


# The layout of every VAR sample: the lag windows X_t of shape (m, p) are
# the covariates of the (m, p, m) truth, and the innovations are standard.
_VAR_LAYOUT = {"split": 2, "noise_sigma": 1.0}


def _check_var_layout(spec, split, noise_sigma):
    """Refuse a t3 (VAR) draw in any layout but `_VAR_LAYOUT`: the rule of
    :func:`gen_samples` and of a rate config."""
    layout = {"split": split, "noise_sigma": noise_sigma}
    if spec.kind == "t3" and layout != _VAR_LAYOUT:
        raise ValidationError(f"a t3 (VAR) sample needs {_VAR_LAYOUT}, got {layout}")


def _var_group(models, n, seeds):
    """Simulate one lockstep group of :func:`gen_var_panel` and return a
    generator of its problems.

    Step t of every series at once: x_t = eps_t + [A_p ... A_1] x_{t-p:t},
    the p lags flattened oldest first, by one batched matmul with each
    model's stacked coefficients and one add of the innovations.  The lags
    before t = 0 read p leading zero rows.
    """
    p, m, burn_in = models[0].p, models[0].m, models[0].burn_in
    total = burn_in + p + n
    # series b is x[b, p:]; its innovations are drawn there, then added to
    x = np.zeros((len(models), p + total, m))
    for row, seed in zip(x, seeds):
        np.random.default_rng(seed).standard_normal((total, m), out=row[p:])
    stacked = np.stack([np.concatenate(model.coeffs[::-1], axis=1) for model in models])
    lagged = np.empty((len(models), m, 1))
    for t in range(p, p + total):
        np.matmul(stacked, x[:, t - p : t].reshape(len(models), p * m, 1), out=lagged)
        x[:, t] += lagged[..., 0]
    first = p + burn_in + p  # the first response, as an index of x[b]
    return (
        RegressionProblem(
            # window i of x[b] is x[b, i : i + p], the p steps before x[b, i + p]
            covariates=sliding_window_view(row, p, axis=0)[
                first - p : first - p + n, :, ::-1
            ],
            responses=row[first : first + n],
            **_VAR_LAYOUT,
            truth=var_truth(model),
            meta={"model": model.to_json(), "seed": seed},
        )
        for row, model, seed in zip(x, models, seeds)
    )


# The unit-circle grid of `var_spectral_extrema` doubles at most this many
# times, until both extrema move by less than the tolerance.
_EXTREMA_MAX_REFINE = 12
_EXTREMA_TOL = 1e-6


def var_spectral_extrema(model, grid=64):
    """Extrema over the unit circle of the eigenvalues of A(z)* A(z) where
    A(z) = I - sum_j A_j z^j.

    The grid doubles until both extrema move by less than `_EXTREMA_TOL`,
    at most `_EXTREMA_MAX_REFINE` times.
    """
    grid = check_count("grid", grid, 64)
    coeffs = model.coeffs
    p, m = model.p, model.m

    def extrema(g):
        theta = np.linspace(0.0, 2.0 * np.pi, g, endpoint=False)
        z = np.exp(-1j * theta)
        powers = z[:, None] ** np.arange(1, p + 1)[None, :]
        mats = np.eye(m)[None, :, :] - np.einsum("gj,jkl->gkl", powers, coeffs)
        herm = np.conj(np.transpose(mats, (0, 2, 1))) @ mats
        ev = np.linalg.eigvalsh(herm)
        return float(ev[:, 0].min()), float(ev[:, -1].max())

    mu_min, mu_max = extrema(grid)
    for _ in range(_EXTREMA_MAX_REFINE):
        grid *= 2
        new_min, new_max = extrema(grid)
        done = (
            abs(new_min - mu_min) < _EXTREMA_TOL
            and abs(new_max - mu_max) < _EXTREMA_TOL
        )
        mu_min, mu_max = min(mu_min, new_min), max(mu_max, new_max)
        if done:
            break
    return {"mu_min": mu_min, "mu_max": mu_max, "grid": grid}
