"""Solvers for the regularized least-squares tensor regression program:
accelerated proximal gradient for every penalty with a prox, the
pairwise-component one in its block parameter, and consensus ADMM for the
averaged matricized nuclear norm, plus the tuning rule, risk-bound
evaluation, and first-order optimality certificates.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import ValidationError, is_real
from .errors import check_count, check_finite, check_real, check_split, json_key
from .regularizers import RegularizerSpec, _marginal_sums, _matched_bound, prox, reg_dual, reg_eval
from .spectral import WidthEstimate, matrix_svt
from .tensor import dematricize, matricize, read_tns, write_tns

__all__ = [
    "RegressionProblem",
    "SufficientStats",
    "SolveResult",
    "objective",
    "empirical_norm",
    "lambda_rule",
    "risk_bound_predicted",
    "kkt_residual",
    "fista_solve",
    "admm_matricized",
    "expand_pairwise",
    "marginal_features",
    "save_problem",
    "load_problem",
    "solve",
]

# The iteration cap of every solver, a rate config and `tenreg solve`.
MAX_ITERS = 2000
# FISTA: relative objective change that triggers a certificate check, the
# periodic certificate interval, and power steps for the initial Lipschitz
# estimate.
_TOL = 1e-10
_KKT_EVERY = 25
_POWER_ITERS = 5
# ADMM: initial penalty parameter, and the residual ratio and factor of the
# penalty rebalancing.
_ADMM_RHO = 1.0
_BALANCE_MU = 10.0
_BALANCE_TAU = 2.0


@dataclass
class RegressionProblem:
    """A sample of covariate/response pairs with the covariate-mode split.

    `covariates` is stacked as an array of shape ``(n, *cov_shape)`` and
    `responses` as ``(n, *resp_shape)`` (``(n,)`` for scalar responses).
    When present, `truth` has shape ``cov_shape + resp_shape``.
    """

    covariates: np.ndarray
    responses: np.ndarray
    split: int
    noise_sigma: float = 0.0
    truth: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.covariates = check_finite("covariates", self.covariates)
        self.responses = check_finite("responses", self.responses)
        if self.covariates.shape[0] != self.responses.shape[0]:
            raise ValidationError("covariate and response counts differ")
        if self.covariates.shape[0] < 1:
            raise ValidationError("need at least one sample")
        check_split(self.split, len(self.truth_shape))
        if self.split != self.covariates.ndim - 1:
            raise ValidationError("split must equal the covariate order")
        check_real("noise_sigma", self.noise_sigma, 0)
        _check_truth(self)

    @property
    def n(self):
        return self.covariates.shape[0]

    @property
    def cov_shape(self):
        return self.covariates.shape[1:]

    @property
    def resp_shape(self):
        return self.responses.shape[1:]

    @property
    def truth_shape(self):
        return self.cov_shape + self.resp_shape

    def design_matrices(self):
        """Flattened (n, dim_cov) covariates and (n, dim_resp) responses."""
        x2 = self.covariates.reshape(self.n, -1)
        y2 = self.responses.reshape(self.n, -1)
        return x2, y2


@dataclass
class SufficientStats:
    """A sample seen only through what penalized least squares reads of it:
    ``gram = X^T X`` over the flattened covariates, ``xty = X^T Y`` in the
    truth shape, ``yty = ||Y||^2`` and the sample count `n`.

    Every solver, :func:`objective`, :func:`kkt_residual` and
    :func:`empirical_norm` take it in place of a :class:`RegressionProblem`
    with the same `split` and `truth`.  The statistics determine the loss,
    so a solve returns the estimate of the data they summarize.
    """

    gram: np.ndarray
    xty: np.ndarray
    yty: float
    n: int
    split: int
    truth: np.ndarray | None = None

    def __post_init__(self):
        self.gram = check_finite("gram", self.gram)
        self.xty = check_finite("xty", self.xty)
        self.yty = float(check_finite("yty", self.yty))
        check_real("yty", self.yty, 0)
        check_count("n", self.n, 1)
        check_split(self.split, self.xty.ndim)
        dim = math.prod(self.cov_shape)
        if self.gram.shape != (dim, dim):
            raise ValidationError(f"gram shape {self.gram.shape} != {(dim, dim)}")
        # what no sample has: every producer writes an exactly symmetric Gram
        if not np.array_equal(self.gram, self.gram.T):
            raise ValidationError("gram must be symmetric")
        if (np.diagonal(self.gram) < 0).any():
            raise ValidationError("gram must have a nonnegative diagonal")
        _check_truth(self)

    @property
    def cov_shape(self):
        return self.xty.shape[: self.split]

    @property
    def resp_shape(self):
        return self.xty.shape[self.split :]

    @property
    def truth_shape(self):
        return self.xty.shape


def _check_truth(problem):
    """Reject empty axes and a truth that is not finite in the truth shape."""
    if 0 in problem.truth_shape:
        raise ValidationError(f"need non-empty axes, got shape {problem.truth_shape}")
    if problem.truth is not None:
        problem.truth = check_finite("truth", problem.truth)
        if problem.truth.shape != problem.truth_shape:
            raise ValidationError(f"truth shape {problem.truth.shape} != {problem.truth_shape}")


@dataclass
class SolveResult:
    """The result of every solver.  The defaults are those of a solve whose
    data overflow before the first step."""

    lam: float
    estimate: np.ndarray
    objective_trace: list = ()
    kkt_residual: float = math.inf
    iterations: int = 0
    status: str = "Diverged"  # Converged | MaxIters | Stalled | Diverged
    components: tuple | None = None

    def __post_init__(self):
        self.lam = float(self.lam)
        self.objective_trace = list(self.objective_trace)
        self.kkt_residual = float(self.kkt_residual)

    # not `fields_to_json`: arrays, nulls for non-finite floats, derived keys
    def to_json(self):
        """Plain JSON: non-finite floats, which JSON cannot carry, are null."""
        return {
            "status": self.status,
            "iterations": self.iterations,
            "lambda": _finite_or_null(self.lam),
            "kkt_residual": _finite_or_null(self.kkt_residual),
            "objective_trace": [_finite_or_null(float(v)) for v in self.objective_trace],
            "estimate_shape": list(self.estimate.shape),
            "estimate": [_finite_or_null(v) for v in self.estimate.ravel().tolist()],
        }


def _finite_or_null(v):
    return v if math.isfinite(v) else None


def _check_solvable(spec, truth_shape, resp_shape):
    """Refuse, before any work, what no solver fits: the tensor-spectral
    kind, which has no value to certify with, or a truth of the wrong shape.
    The solvers, a rate config and ``tenreg solve`` all ask it."""
    if spec.kind == "tensor_spectral_dual_only":
        raise ValidationError(
            f"{spec.kind} is not prox-friendly: it has no value on a tensor, so "
            "fista_solve has no solver for it"
        )
    if len(truth_shape) != 3:
        raise ValidationError(f"{spec.kind} expects an order-3 truth shape")
    if spec.kind == "pairwise_component_nuclear" and resp_shape:
        raise ValidationError("pairwise regresses a scalar response: split must be 3")


def _check_param(problem, a):
    a = np.asarray(a, dtype=np.float64)
    if a.shape != problem.truth_shape:
        raise ValidationError(f"parameter shape {a.shape} != {problem.truth_shape}")
    return a


@np.errstate(over="ignore", invalid="ignore")
def _on_exact_loss(problem, a, value):
    """``value(op, a)`` for the loss operator `op` of `problem` as
    :func:`objective` and :func:`kkt_residual` read it: on the data
    themselves, or on statistics through the solvers' own Gram operator.
    Sums of finite entries that overflow read as inf, with no warning, as a
    solve on them ends Diverged: for statistics, only where ``G a`` does
    (at a = 0 their loss reads yty / 2n)."""
    a = _check_param(problem, a)
    if isinstance(problem, SufficientStats):
        op = _operator(problem)
    else:
        op = _LeastSquares(*problem.design_matrices(), problem.n)
    val = value(op, a)
    return val if math.isfinite(val) else math.inf


def objective(problem, spec, lam, a):
    """(1/2n) sum ||Y_i - <X_i, a>||_F^2 + lam * R(a)."""
    penalty = partial(reg_eval, spec)
    return _on_exact_loss(
        problem, a, lambda op, a: _penalized(op.loss(a), lam, penalty, a) + op.offset
    )


def _penalized(loss, lam, penalty, a):
    """``loss + lam * penalty(a)``, the penalty skipped at lam = 0: the
    objective as every solver and :func:`objective` form it, each adding
    its operator's constant offset last."""
    return loss + lam * penalty(a) if lam != 0.0 else loss


def empirical_norm(problem, delta):
    """Design-weighted prediction norm sqrt((1/n) sum ||<delta, X_i>||_F^2),
    which from sufficient statistics is sqrt(<delta, X^T X delta> / n)."""
    delta = _check_param(problem, delta)
    if isinstance(problem, SufficientStats):
        d2 = delta.reshape(len(problem.gram), -1)
        return float(np.sqrt((d2 * (problem.gram @ d2)).sum() / problem.n))
    x2, _ = problem.design_matrices()
    pred = x2 @ delta.reshape(x2.shape[1], -1)
    return float(np.sqrt((pred * pred).sum() / problem.n))


def _check_rule(n, c_u, c_reg):
    if not (all(map(is_real, (n, c_u, c_reg))) and n >= 1 and c_u > 0 and 0 < c_reg <= 1):
        raise ValidationError("need finite n >= 1, c_u > 0 and 0 < c_reg <= 1")


def lambda_rule(width, n, c_u=1.0, c_reg=1.0):
    """Tuning rule lam = 2 c_u (3 + c_R) / (c_R sqrt(n)) * width."""
    _check_rule(n, c_u, c_reg)
    mean = width.mean if isinstance(width, WidthEstimate) else width
    check_real("width", mean, 0)
    return 2.0 * c_u * (3.0 + c_reg) / (c_reg * np.sqrt(n)) * mean


def risk_bound_predicted(spec, sub, lam, c_u=1.0, c_ell=1.0):
    """Right-hand side of the risk bound for a matched (penalty, subspace)
    pair: (6(1+c_R)/(3+c_R)) * (9 c_u^2 / c_ell^2) * s * lam^2."""
    check_real("lam", lam, 0)
    if not (is_real(c_ell) and is_real(c_u) and 0 < c_ell <= c_u):
        raise ValidationError("need c_u >= c_ell > 0")
    c = spec.c_reg
    s = _matched_bound(spec, sub)
    return (6.0 * (1.0 + c) / (3.0 + c)) * (9.0 * c_u**2 / c_ell**2) * s * lam**2


def kkt_residual(problem, spec, lam, a):
    """Relative duality gap at `a`, a bound on ``(P(a) - P*) / P(a)`` for
    the objective P of :func:`objective`: the gap of the residual over n
    scaled into the dual ball by ``s = min(1, lam / R*(g))`` (Fercoq,
    Gramfort & Salmon 2015), ``lam R(a) + s <g, a> + (1 - s)^2 F(a)`` for
    the loss F and its gradient g, over ``P(a)``.  It vanishes exactly at a
    minimizer.  At lam = 0 only a zero gradient is dual feasible, so there
    it reads the gradient's norm against its norm at zero, which vanishes
    exactly at a least-squares fit.  The matricized nuclear norm's R*
    over-covers, so its gap is sound but loose, and ADMM stops on its own
    residuals."""
    dual, penalty = partial(reg_dual, spec), partial(reg_eval, spec)
    return _on_exact_loss(problem, a, lambda op, a: _certificate(op, lam, a, dual, penalty))


def _certificate(op, lam, a, dual, penalty):
    """:func:`kkt_residual` at `a` on the operator `op`, the penalty's dual
    norm `dual` and its value `penalty`: the one formula every solver
    certifies with.  A gap that rounds below zero reads 0, one that overflows inf."""
    loss, g = op.loss_grad(a)
    if lam == 0.0:
        g_norm, g0_norm = float(np.linalg.norm(g)), op.grad0_norm
        return 0.0 if g_norm == 0 else g_norm / g0_norm if g0_norm else math.inf
    full = loss + op.offset
    lam_r = lam * penalty(a)
    r_dual = dual(g)
    s = 1.0 if r_dual <= lam else lam / r_dual
    gap = lam_r + s * float(np.vdot(g, a)) + (1.0 - s) ** 2 * full
    if gap > 0 and full + lam_r:
        return gap / abs(full + lam_r)
    return 0.0 if gap <= 0 else math.inf


class _Quadratic:
    """The loss ``F(a) = loss(a) + offset`` of least squares on a design X
    over n samples, Hessian ``H = X^T X / n``, on the data or on their Gram.
    Its methods take a parameter in its own shape (the truth shape, or the
    pairwise block vector) and give a gradient or solve back in it."""

    offset = 0.0

    @cached_property
    def grad0_norm(self):
        """``||g(0)|| = ||X^T y|| / n``, the scale of the certificate at lam = 0."""
        return float(np.linalg.norm(self.xty)) / self.n

    def hvp(self, a):
        """``H a``: one product with the Gram, or two with the design."""
        return self._hess(self._columns(a)).reshape(a.shape)

    def lipschitz(self):
        """Largest eigenvalue of H by a few power iterations."""
        v = np.full(self.dim, 1.0 / np.sqrt(self.dim))
        for _ in range(_POWER_ITERS):
            w = self._hess(v)
            est = float(np.linalg.norm(w))
            if est == 0.0:
                return 1.0
            v = w / est
        return est

    def shifted_solve(self, b, c):
        """``(H + c I)^{-1} b`` for c > 0 in the Woodbury form
        ``(b - W^T diag(1 / (n (e + c))) W b) / c`` of the `spectrum` ``(W, e)``,
        ``W^T W = X^T X``; `b` may also hold right-hand sides as columns."""
        w, e = self.spectrum
        b2 = b.reshape(w.shape[1], -1)
        x = (b2 - w.T @ ((w @ b2) / (self.n * (e + c))[:, None])) / c
        return x.reshape(b.shape)


@dataclass
class _LeastSquares(_Quadratic):
    """``(1/2n) ||M a - T||^2`` on the flattened design M and responses T."""

    design: np.ndarray
    target: np.ndarray
    n: int

    def __post_init__(self):
        self.dim = self.design.shape[1]

    def _columns(self, a):
        return a.reshape(self.dim, *self.target.shape[1:])

    def _hess(self, c):
        return self.design.T @ (self.design @ c) / self.n

    def _residual(self, a):
        return self.design @ self._columns(a) - self.target

    @cached_property
    def xty(self):
        return self.design.T @ self.target

    def _loss_of(self, r):
        return 0.5 * float(np.vdot(r, r)) / self.n

    def loss(self, a):
        """The loss without its constant offset, from one product."""
        return self._loss_of(self._residual(a))

    def loss_grad(self, a):
        r = self._residual(a)
        return self._loss_of(r), (self.design.T @ r / self.n).reshape(a.shape)

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def spectrum(self):
        """``(W, e)`` with ``W = U^T M`` from the smaller, row Gram
        ``M M^T = U diag(n e) U^T``, taken once; None when it overflows."""
        rows = self.design @ self.design.T
        if not np.isfinite(rows).all():
            return None
        e, u = np.linalg.eigh(rows)
        return u.T @ self.design, e / self.n


@dataclass
class _Gram(_Quadratic):
    """The loss of the statistics ``gram = X^T X``, ``xty = X^T y``,
    ``yty = ||y||^2`` and n: one product ``G a`` gives the loss
    ``(<a, G a> / 2 - <xty, a>) / n``, which cancels, and the gradient
    ``(G a - xty) / n``; the offset is ``yty / 2n``."""

    gram: np.ndarray
    xty: np.ndarray
    yty: float
    n: int

    def __post_init__(self):
        self.dim, self.offset = len(self.gram), 0.5 * self.yty / self.n

    def _columns(self, a):
        return a.reshape(self.dim, *self.xty.shape[1:])

    def _hess(self, c):
        return self.gram @ c / self.n

    def loss_grad(self, a):
        c = self._columns(a)
        gc = self.gram @ c
        loss = (0.5 * float(np.vdot(c, gc)) - float(np.vdot(self.xty, c))) / self.n
        return loss, ((gc - self.xty) / self.n).reshape(a.shape)

    def loss(self, a):
        return self.loss_grad(a)[0]

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def spectrum(self):
        """``(W, e) = (L^(1/2) V^T, L / n)`` from ``X^T X = V L V^T``, taken
        once, by ADMM alone, eigenvalues below zero read as 0; None on overflow."""
        if not np.isfinite(self.gram).all():
            return None
        e, v = np.linalg.eigh(self.gram)
        e = np.maximum(e, 0.0)
        return (np.sqrt(e)[:, None] * v.T, e / self.n) if np.isfinite(e).all() else None


@np.errstate(over="ignore", invalid="ignore")
def _operator(problem, pairwise=False):
    """The least-squares operator of either problem form, or None when the
    squares of the responses overflow: the one entry every solver takes.
    Other sums that overflow, with no warning, show as a non-finite loss or
    Lipschitz estimate or a None `spectrum`, which the solvers return as
    Diverged.  A :class:`RegressionProblem` goes through
    :func:`_least_squares` on its flattened design, or with `pairwise` on
    its marginal-sum features; a :class:`SufficientStats` to :class:`_Gram`,
    with its features' statistics ``A gram A^T`` and ``A xty`` through the
    :func:`_pairwise_map` A, so no design is ever formed."""
    if isinstance(problem, SufficientStats):
        gram, xty = problem.gram, problem.xty.reshape(len(problem.gram), -1)
        if pairwise:
            amap = _pairwise_map(problem.cov_shape)
            gram, xty = amap @ gram @ amap.T, amap @ xty[:, 0]
        return _Gram(gram, xty, problem.yty, problem.n)
    if pairwise:
        n, feats = problem.n, marginal_features(problem.covariates)
        x2 = np.hstack([f.reshape(n, -1) for f in feats])
        return _least_squares(x2, problem.responses.reshape(n), n)
    return _least_squares(*problem.design_matrices(), problem.n)


def _least_squares(x2, y, n):
    """The operator for ``(1/2n) ||x2 a - y||^2`` on data, or None when the
    squares of the responses overflow.  With n at most the parameter
    dimension d it works in data space; above that on the Gram of
    :func:`_statistics`."""
    if n > x2.shape[1]:
        gram, xty, yty = _statistics(x2, y)
        return _Gram(gram, xty, yty, n) if math.isfinite(yty) else None
    return _LeastSquares(x2, y, n) if math.isfinite(float((y * y).sum())) else None


def _statistics(x, y):
    """``(X^T X, X^T y, ||y||^2)`` for the covariates `x` flattened to the
    design X and the responses `y`: the one reduction of data to sufficient
    statistics.  ``||y||^2`` comes first, so a copy that flattening makes (of
    a lag-window view) lives only for the two products."""
    yty = float((y * y).sum())
    x2 = x.reshape(len(x), -1)
    return x2.T @ x2, x2.T @ y, yty


class _Overflow(Exception):
    """A non-finite step-size inverse or curvature inside :func:`_apg`."""


@np.errstate(over="ignore", invalid="ignore")
def _apg(x0, op, prox_step, penalty, dual, lam, max_iters, kkt_tol):
    """FISTA (Beck & Teboulle 2009) with backtracking and adaptive restart
    (O'Donoghue & Candes 2015) on the loss of the :class:`_Quadratic` `op`
    plus ``lam * penalty``, whose prox at `v` with step t is
    ``prox_step(v, t)`` and whose dual norm `dual` gives the certificate.

    The loss is evaluated once, at `x0`; every later value is carried by the
    exact differences of a quadratic, ``<g(y), d> + <d, H d> / 2`` from y to
    a trial ``y + d`` and ``<g(x) + g(y), y - x> / 2`` from x to the
    momentum point y, so no two (cancelling) loss values are compared.
    Each step's start takes the gradient at y, and each backtracking trial
    one ``H d``: its descent test is ``<d, H d> <= L ||d||^2``, with the
    slack ``1e-12 max(1, |model|)``, and it gives the trial's gradient.  A
    non-finite step-size inverse or curvature ends Diverged.  Returns
    ``(x, trace, certificate, iterations, status)``.
    """

    def backtrack(y, fy, gy, lip):
        while np.isfinite(lip):
            cand = prox_step(y - gy / lip, 1.0 / lip)
            d = cand - y
            hd = op.hvp(d)
            lin, curv = float(np.vdot(gy, d)), float(np.vdot(d, hd))
            if not np.isfinite(curv):
                break
            sq = float(np.vdot(d, d))
            quad = fy + lin + 0.5 * lip * sq
            if curv <= lip * sq + 2e-12 * max(1.0, abs(quad)):
                return cand, lip, fy + lin + 0.5 * curv, gy + hd
            lip *= 2.0
        raise _Overflow

    lip, t_mom = max(op.lipschitz(), 1e-12), 1.0
    x = y = x0
    fx, gx = op.loss_grad(x0)
    fx += op.offset
    obj = _penalized(fx, lam, penalty, x)
    trace = [obj]
    status, iters_done, dead_steps = "MaxIters", 0, 0

    try:
        if not np.isfinite(obj):
            raise _Overflow
        for it in range(1, max_iters + 1):
            iters_done = it
            gy = op.loss_grad(y)[1] if it > 1 else gx  # y = x0 at the first step
            fy = fx + 0.5 * float(np.vdot(gx + gy, y - x))
            cand, lip, f_cand, g_cand = backtrack(y, fy, gy, lip)
            new_obj = _penalized(f_cand, lam, penalty, cand)
            if new_obj > obj:
                # adaptive restart: momentum overshot, redo plain step from x
                t_mom = 1.0
                cand, lip, f_cand, g_cand = backtrack(x, fx, gx, lip)
                new_obj = _penalized(f_cand, lam, penalty, cand)
                if new_obj > obj:
                    cand, f_cand, g_cand, new_obj = x, fx, gx, obj
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            y = cand + ((t_mom - 1.0) / t_next) * (cand - x)
            x, fx, gx, t_mom = cand, f_cand, g_cand, t_next
            rel_change = abs(obj - new_obj) / max(abs(obj), 1e-15)
            obj = new_obj
            trace.append(obj)
            # an objective stall triggers the (costlier) certificate check;
            # the solver only returns early once the certificate passes or the
            # objective, carried by exact differences, stops moving (a stall,
            # so checked); the last iteration is certified, not checked
            check = (it % _KKT_EVERY == 0) or rel_change < _TOL
            if check or it == max_iters:
                kkt = _certificate(op, lam, x, dual, penalty)
                if check and kkt < kkt_tol:
                    status = "Converged"
                    break
            if rel_change == 0.0:
                dead_steps += 1
                if dead_steps >= 5:
                    status = "Stalled"
                    break
            else:
                dead_steps = 0
    except _Overflow:
        return x, trace, np.inf, iters_done, "Diverged"
    return x, trace, float(kkt), iters_done, status


def fista_solve(problem, spec, lam, max_iters=MAX_ITERS, kkt_tol=1e-7):
    """Accelerated proximal gradient with backtracking and adaptive restart.

    Requires a penalty with a closed-form prox.  The pairwise-component one
    has it on the :class:`_PairwiseBlocks` parameter, so that solve returns
    the assembled tensor with the fitted components in ``components``.
    Starts from zero, so a lam above the dual norm of the gradient at zero
    returns the zero solution exactly.  The objective trace is
    nonincreasing: momentum steps that would increase the objective trigger
    a restart from the previous iterate.  A stalled objective (relative
    change below 1e-10) or every 25th iteration triggers the certificate
    check, and the solve returns Converged once the relative duality gap of
    :func:`kkt_residual` drops below `kkt_tol`, Stalled once five steps in a
    row leave the objective unchanged, or MaxIters after `max_iters` steps.
    On statistics, or data with n above the parameter dimension, every loss
    and gradient is one product with the Gram X^T X, and no solve takes an
    eigendecomposition (see :func:`_operator`).  Data whose squares
    overflow return Diverged.
    """
    max_iters = check_count("max_iters", max_iters, 1)
    check_real("kkt_tol", kkt_tol, 0)
    check_real("lam", lam, 0)
    _check_solvable(spec, problem.truth_shape, problem.resp_shape)
    if lam > 0 and not spec.has_prox():
        raise ValidationError(f"{spec.kind} is not prox-friendly, use ADMM")
    shape = problem.truth_shape
    pairwise = spec.kind == "pairwise_component_nuclear"
    if pairwise:
        blocks = _PairwiseBlocks(shape)
        x, shrink = np.zeros(blocks.size), blocks.prox
        penalty, dual = blocks.value, blocks.dual
    else:
        x = np.zeros(shape)
        shrink, penalty, dual = (partial(f, spec) for f in (prox, reg_eval, reg_dual))

    def prox_step(a, t):
        # the slice prox returns a transposed view; a C-ordered copy keeps
        # the order in which the iterates' sums run
        return np.ascontiguousarray(shrink(a, t * lam)) if lam > 0 else a

    op, run = _operator(problem, pairwise), ()
    if op is not None:
        x, *run = _apg(x, op, prox_step, penalty, dual, lam, max_iters, kkt_tol)
    if not pairwise:
        return SolveResult(lam, x, *run)
    comps = blocks.split(x)
    return SolveResult(lam, expand_pairwise(comps, shape), *run, components=comps)


@np.errstate(over="ignore", invalid="ignore")
def admm_matricized(problem, lam, max_iters=MAX_ITERS, tol=1e-6):
    """Consensus ADMM for the averaged sum of matricized nuclear norms.

    Three auxiliary copies, one per unfolding, are soft-thresholded at
    ``lam / (3 rho)`` each round; the consensus iterate's ridge system is
    solved in Woodbury form from the one eigendecomposition of the smaller
    Gram that FISTA's least-squares operator keeps, so rebalancing the penalty
    parameter when the primal and dual residuals drift apart costs nothing.
    Converged means both residuals fell below `tol` within `max_iters`
    rounds; data whose squares overflow return Diverged.
    """
    max_iters = check_count("max_iters", max_iters, 1)
    check_real("tol", tol, 0)
    check_real("lam", lam, 0)
    spec = RegularizerSpec("matricized_nuclear_sum")
    _check_solvable(spec, problem.truth_shape, problem.resp_shape)
    shape = problem.truth_shape

    op = _operator(problem)
    if op is None or op.spectrum is None:
        return SolveResult(lam, np.zeros(shape))

    penalty = partial(reg_eval, spec)
    a = np.zeros(shape)
    loss0, grad0 = op.loss_grad(a)
    trace = [_penalized(loss0, lam, penalty, a) + op.offset]
    rhs0 = -grad0  # M^T T / n
    rho = _ADMM_RHO
    zs = [np.zeros(shape) for _ in range(3)]
    us = [np.zeros(shape) for _ in range(3)]
    status, iters_done = "MaxIters", 0

    for it in range(1, max_iters + 1):
        iters_done = it
        rhs = rhs0 + rho * sum(z - u for z, u in zip(zs, us))
        a = op.shifted_solve(rhs, 3.0 * rho)
        primal_sq = dual_sq = 0.0
        for k in range(3):
            target = a + us[k]
            znew = dematricize(
                matrix_svt(matricize(target, [k]), lam / (3.0 * rho)), shape, [k]
            )
            dual_sq += float(((znew - zs[k]) ** 2).sum())
            zs[k] = znew
            us[k] = us[k] + a - znew
            primal_sq += float(((a - znew) ** 2).sum())
        r_norm, s_norm = np.sqrt(primal_sq), rho * np.sqrt(dual_sq)
        trace.append(_penalized(op.loss(a), lam, penalty, a) + op.offset)
        if not np.isfinite(r_norm) or trace[-1] > 1e3 * max(trace[0], 1e-12):
            status = "Diverged"
            break
        if r_norm < tol and s_norm < tol:
            status = "Converged"
            break
        if r_norm > _BALANCE_MU * s_norm:
            rho *= _BALANCE_TAU
            us = [u / _BALANCE_TAU for u in us]
        elif s_norm > _BALANCE_MU * r_norm:
            rho /= _BALANCE_TAU
            us = [u * _BALANCE_TAU for u in us]

    kkt = _certificate(op, lam, a, partial(reg_dual, spec), penalty)
    return SolveResult(lam, a, trace, kkt, iters_done, status)


# ---------------------------------------------------------------------------
# Pairwise interaction models
# ---------------------------------------------------------------------------


def expand_pairwise(components, shape):
    """Assemble the order-3 tensor whose entries are the sums of the three
    pairwise component matrices."""
    a12, a13, a23 = components
    return np.zeros(shape) + a12[:, :, None] + a13[:, None, :] + a23[None, :, :]


def marginal_features(covariates):
    """Per-sample marginal sums (X summed over each left-out axis)."""
    return _marginal_sums(np.asarray(covariates, dtype=np.float64))


class _PairwiseBlocks:
    """The parameter on which ``pairwise_component_nuclear`` has the value,
    prox and dual that it lacks on a tensor: the component matrices of a
    (d1, d2, d3) model, raveled and stacked in :func:`marginal_features`'
    order.  The value sums singular values with no ``SV_RTOL`` cut."""

    def __init__(self, shape):
        d1, d2, d3 = shape
        self.dims = ((d1, d2), (d1, d3), (d2, d3))
        self.size = d1 * d2 + d1 * d3 + d2 * d3
        self._cuts = [d1 * d2, d1 * d2 + d1 * d3]

    def split(self, vec):
        return tuple(b.reshape(d) for b, d in zip(np.split(vec, self._cuts), self.dims))

    def value(self, vec):
        return sum(np.linalg.svd(m, compute_uv=False).sum() for m in self.split(vec))

    def prox(self, vec, t):
        return np.concatenate([matrix_svt(m, t).ravel() for m in self.split(vec)])

    def dual(self, vec):
        return max(np.linalg.svd(m, compute_uv=False)[0] for m in self.split(vec))


@lru_cache
def _pairwise_map(shape):
    """The 0/1 matrix A whose product with a flattened covariate tensor is
    its :func:`marginal_features`, stacked in their order: the features of
    the unit tensors, which are exact, laid out row-major.  Built once per
    shape and read-only."""
    d = math.prod(shape)
    feats = marginal_features(np.eye(d).reshape((d,) + tuple(shape)))
    amap = np.ascontiguousarray(np.hstack([f.reshape(d, -1) for f in feats]).T)
    amap.flags.writeable = False
    return amap


# Read only by the benchmark (perfbench/layers.py), which times it as a layer.
def fista_pairwise(problem, lam, **settings):
    """:func:`fista_solve` on the pairwise-component penalty, with its settings."""
    return fista_solve(problem, RegularizerSpec("pairwise_component_nuclear"), lam, **settings)


def solve(problem, reg, lam, max_iters=MAX_ITERS):
    """Fit `problem` with the solver for `reg`: consensus ADMM for the
    averaged matricized nuclear norm, FISTA for every other penalty."""
    if reg.kind == "matricized_nuclear_sum":
        return admm_matricized(problem, lam, max_iters)
    return fista_solve(problem, reg, lam, max_iters)


# ---------------------------------------------------------------------------
# Problem I/O: TNS1 tensors plus a JSON manifest
# ---------------------------------------------------------------------------


def save_problem(directory, problem):
    """Write a problem as TNS1 files plus ``manifest.json``."""
    os.makedirs(directory, exist_ok=True)
    paths = {"covariates": "covariates.tns", "responses": "responses.tns"}
    write_tns(os.path.join(directory, paths["covariates"]), problem.covariates)
    write_tns(os.path.join(directory, paths["responses"]), problem.responses)
    if problem.truth is not None:
        paths["truth"] = "truth.tns"
        write_tns(os.path.join(directory, paths["truth"]), problem.truth)
    manifest = {"n": problem.n, "M": problem.split, "cov_shape": list(problem.cov_shape),
                "resp_shape": list(problem.resp_shape), "sigma": problem.noise_sigma,
                "paths": paths, "meta": problem.meta}
    mpath = os.path.join(directory, "manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return mpath


def load_problem(directory):
    """Read a problem written by :func:`save_problem`.  Its manifest's `n`,
    `cov_shape` and `resp_shape` must agree with the tensors read."""
    json_path = directory.endswith(".json")
    mpath = directory if json_path else os.path.join(directory, "manifest.json")
    base = os.path.dirname(mpath)
    with open(mpath) as fh:
        manifest = json.load(fh)
    paths = json_key(manifest, "paths", "problem manifest")

    def read(key):
        name = json_key(paths, key, "manifest paths")
        if not isinstance(name, str):
            raise ValidationError(f"manifest path {key!r} must be a string, got {name!r}")
        return read_tns(os.path.join(base, name))

    problem = RegressionProblem(
        covariates=read("covariates"),
        responses=read("responses"),
        split=json_key(manifest, "M", "problem manifest"),
        noise_sigma=json_key(manifest, "sigma", "problem manifest"),
        truth=read("truth") if "truth" in paths else None,
        meta=manifest.get("meta", {}),
    )
    for key, have in [("n", problem.n), ("cov_shape", list(problem.cov_shape)),
                      ("resp_shape", list(problem.resp_shape))]:
        stated = json_key(manifest, key, "problem manifest")
        if stated != have:
            raise ValidationError(
                f"manifest key {key!r} is {stated!r}, but the tensors give {have!r}"
            )
    return problem
