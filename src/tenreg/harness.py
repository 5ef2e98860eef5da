"""Experiment orchestration: width scaling studies, rate-verification
sweeps, constructive hypercube packings with an independent verifier, and
deterministic report emission.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .datagen import ModelClassSpec, _check_var_layout, _signs, gen_samples
from .datagen import gen_truth
from .errors import (
    BudgetExhausted,
    ValidationError,
    check_choice,
    check_count,
    check_real,
    check_split,
    fields_from_json,
    fields_to_json,
    is_int,
    is_real,
    json_tuple,
)
from . import regularizers
from .regularizers import RegularizerSpec, entry_l1, fiber_group, slice_frob
from .regularizers import _GROUP_KINDS, matricized_nuclear_sum, slice_nuclear, tensor_spectral
from .solver import MAX_ITERS, _check_rule, _check_solvable
from .solver import empirical_norm, lambda_rule, solve

# Unused here since the harness solves through `solve`, but kept bound: the
# benchmark's tracer test (perfbench/tests/test_tracer.py) checks that a
# solver wrapped in `tenreg.solver` is also wrapped at this binding.
from .solver import fista_solve  # noqa: F401
from .spectral import _exact_estimate, _width_sq
from .spectral import WIDTH_DRAWS, gaussian_width_mc
from .spectral import width_rate_expression

__all__ = [
    "RateExperimentConfig",
    "predicted_rate",
    "rate_experiment",
    "width_experiment",
    "auto_lambda",
    "PackingSet",
    "hypercube_packing",
    "verify_packing",
    "fano_precondition_check",
    "emit_report",
]

_PAIRWISE = RegularizerSpec("pairwise_component_nuclear")

# Each tag's rate is budget * w^2 / n, with w^2 the squared width growth law
# of the penalty that fits the structure, and the budget a model field to a
# power: tag -> model -> (field, power, penalty).
_RATES = {
    "s_log_total_over_n": lambda m: ("s", 1, entry_l1()),
    "s_max_fiberdim_loggroups_over_n": lambda m: ("s", 1, fiber_group(m.mode)),
    "s_max_area_loggroups_over_n": lambda m: ("s", 1, slice_frob(m.axes)),
    # multi-response layout (p, m, m): slices are m x m, groups over p
    "s_max_msq_logp_over_n": lambda m: ("s", 1, slice_frob((1, 2))),
    # VAR layout (m, p, m): fibers have length p, m^2 groups
    "s_max_p_2logm_over_n": lambda m: ("s", 1, fiber_group(1)),
    "r_max_m_logp_over_n": lambda m: ("r", 1, slice_nuclear((1, 2))),
    "r_max_dim_over_n": lambda m: ("r", 1, _PAIRWISE),
    "r_max_pairprod_over_n": lambda m: ("r", 1, matricized_nuclear_sum()),
    "rsq_sum_dims_over_n": lambda m: ("r", 2, tensor_spectral()),
}


def predicted_rate(tag, model, n):
    """Evaluate a predicted-rate formula tag for a model class at sample
    size n (constants are not tracked; only the growth law matters).  The
    model field the tag takes its budget from must be an integer >= 1, and
    n a finite number >= 1."""
    check_choice("rate tag", tag, _RATES)
    field, power, penalty = _RATES[tag](model)
    budget = getattr(model, field)
    if not (is_int(budget) and budget >= 1):
        raise ValidationError(f"rate tag {tag!r} needs the model's {field} to be an integer "
                              f">= 1, got {budget!r}")
    check_real("n", n, 1)
    return budget**power * _width_sq(penalty, model.shape) / n


@dataclass(frozen=True)
class RateExperimentConfig:
    """One rate-verification sweep: a truth class, a penalty, an n grid, and
    the predicted rate the median errors are regressed against."""

    model: ModelClassSpec
    regularizer: RegularizerSpec  # the pairwise shorthand reads as its spec
    n_grid: tuple[int, ...]
    replications: int
    seed: int
    rate_tag: str
    c_u: float = 1.0
    noise_sigma: float = 1.0
    width_draws: int = WIDTH_DRAWS
    split: int = 2
    max_iters: int = MAX_ITERS

    def __post_init__(self):
        # the sweep's own fields; the rest is checked by the rules its cells run
        if not isinstance(self.n_grid, (tuple, list)):
            raise ValidationError(f"n_grid must be a list, got {self.n_grid!r}")
        grid = tuple(self.n_grid)
        if not all(is_int(n) and n >= 1 for n in grid):
            raise ValidationError(f"n_grid entries must be integers >= 1, got {list(grid)!r}")
        check_count("seed", self.seed, 0)
        check_count("replications", self.replications, 10)
        check_count("width_draws", self.width_draws, 100)
        check_split(self.split, 3)
        if len(grid) < 4 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("n_grid must be strictly increasing with >= 4 points")
        predicted_rate(self.rate_tag, self.model, grid[0])  # the rule the fit runs
        reg = self.regularizer
        if reg == "pairwise":
            object.__setattr__(self, "regularizer", reg := _PAIRWISE)
        if not isinstance(reg, RegularizerSpec):
            raise ValidationError(
                f"regularizer must be a penalty object or 'pairwise', got {reg!r}"
            )
        for n in grid:
            _check_rule(n, self.c_u, reg.c_reg)
        check_count("max_iters", self.max_iters, 1)
        check_real("noise_sigma", self.noise_sigma, 0)
        _check_solvable(reg, self.model.shape, self.model.shape[self.split :])
        _check_var_layout(self.model, self.split, self.noise_sigma)
        gen_truth(self.model, self.seed)  # the class's own draw rule; truth unused

    def to_json(self):
        return fields_to_json(self)

    @classmethod
    def from_json(cls, obj):
        return fields_from_json(
            cls, obj, "rate config", model=ModelClassSpec.from_json, n_grid=json_tuple,
            regularizer=lambda v: (
                RegularizerSpec.from_json(v) if isinstance(v, dict) else v
            ),
        )


# Read only by the benchmark (perfbench/layers.py), which times it as a layer.
def pairwise_width_mc(shape, draws=WIDTH_DRAWS, seed=0):
    """Width of the pairwise-component penalty ball: expected maximum
    spectral norm over the marginal sums of a standard Gaussian tensor.
    The width driver's own draw, from the seed's one stream, as
    `auto_lambda` and `width_experiment` draw it."""
    return gaussian_width_mc(_PAIRWISE, shape, draws, seed)


def auto_lambda(reg, shape, ns, sigma, draws, seed, *, c_u=1.0):
    """The automatic tuning rule: one width for the penalty `reg` on `shape`,
    then `lambda_rule` at each sample size in `ns`, times the noise level
    `sigma` when sigma > 0.  The penalties whose dual is a largest chi group
    norm (entries, fibers and slice Frobenius norms) take their exact width,
    `gaussian_width`, which depends on neither `draws` nor `seed`, though
    both are checked as for a draw; every other kind, the
    pairwise-component penalty included, takes `gaussian_width_mc`, the
    width `width_experiment` reports at the same seed.  The
    slice-nuclear penalty still draws, though `gaussian_width` has its width
    exactly: without its draws a one-seed traced `cli_pipeline` pass of the
    benchmark falls below the span coverage its tracer test requires (ROADMAP
    item 1).  At sigma = 0 the rule stays unscaled: lambda = 0 makes FISTA from
    zero return a dense interpolant for n < d, which no risk bound covers.  The
    rule's inputs are checked at every n before the width is formed.  Returns
    the width and the lambdas.
    """
    for n in ns:
        _check_rule(n, c_u, reg.c_reg)
    if reg.kind in _GROUP_KINDS:
        width = _exact_estimate(reg, shape, draws, seed)
    else:
        width = gaussian_width_mc(reg, shape, draws, seed)
    lams = []
    for n in ns:
        lam = lambda_rule(width, n, c_u=c_u, c_reg=reg.c_reg)
        lams.append(sigma * lam if sigma > 0 else lam)
    return width, lams


def _log_fit(x, y):
    """Least-squares fit of y against x with R^2."""
    x = np.asarray(x)
    y = np.asarray(y)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _cells(model, n, split, sigma, seq, reps, reg, lam, max_iters):
    """The `reps` replications of one (model, n) point, each a truth and a
    sample drawn by :func:`gen_samples` from its own child of the
    SeedSequence `seq`, solved by `solve` at `lam` and scored on
    delta = estimate - truth.  Yields (cell record, truth) in order.

    A sample with more rows than covariate coordinates comes as its
    sufficient statistics, i.i.d. or VAR, so its `emp_sq` is
    delta^T G delta / n; a VAR cell's is that of its series' own Gram, the
    design's sum of squares up to rounding."""
    problems = gen_samples(model, n, split, sigma, [r.spawn(2) for r in seq.spawn(reps)])
    for ri in range(reps):
        problem = next(problems)
        res = solve(problem, reg, lam, max_iters)
        truth = problem.truth
        delta = res.estimate - truth
        cell = {
            "n": int(n),
            "replication": ri,
            "fro_sq": float((delta * delta).sum()),
            "emp_sq": empirical_norm(problem, delta) ** 2,
            "status": res.status,
            "iterations": res.iterations,
        }
        # a VAR series (n <= m p) pins its lockstep group: drop it before
        # `next` may simulate the next group (an enumerate would keep it)
        del problem
        yield cell, truth


def rate_experiment(config):
    """Run the sweep and fit log median error against log predicted rate.

    Every cell derives its RNG stream from the config seed, so reports are
    replayable byte for byte.  Solver non-convergence is counted per cell
    rather than failing the sweep.  Each n's cells come from :func:`_cells`
    and its row of medians is a reduction over them.
    """
    model, reps = config.model, config.replications
    width, lams = auto_lambda(
        config.regularizer, model.shape, config.n_grid, config.noise_sigma,
        config.width_draws, config.seed, c_u=config.c_u,
    )
    seqs = np.random.SeedSequence(config.seed).spawn(len(config.n_grid))
    cells, per_n = [], []
    for seq, n, lam in zip(seqs, config.n_grid, lams):
        at_n = [cell for cell, _ in _cells(
            model, n, config.split, config.noise_sigma, seq, reps,
            config.regularizer, lam, config.max_iters,
        )]
        cells += at_n
        fro2 = [cell["fro_sq"] for cell in at_n]
        per_n.append({
            "n": int(n),
            "lambda": lam,
            "median_fro_sq": float(np.median(fro2)),
            "median_emp_sq": float(np.median([cell["emp_sq"] for cell in at_n])),
            "q25_fro_sq": float(np.percentile(fro2, 25)),
            "q75_fro_sq": float(np.percentile(fro2, 75)),
            "predicted_rate": float(predicted_rate(config.rate_tag, model, n)),
            "nonconverged": sum(cell["status"] != "Converged" for cell in at_n),
        })
    slope, intercept, r2 = _log_fit(
        [np.log(row["predicted_rate"]) for row in per_n],
        [np.log(row["median_fro_sq"]) for row in per_n],
    )
    return {
        "kind": "rate",
        "config": config.to_json(),
        "width": width.to_json(),
        "fit": {"slope": slope, "intercept": intercept, "r_squared": r2},
        "per_n": per_n,
        "cells": cells,
    }


# A width row is flagged when its estimate / growth-law ratio leaves this band.
_WIDTH_BAND = (0.2, 5.0)


def width_experiment(kinds, shapes, draws=WIDTH_DRAWS, seed=0):
    """Width estimates against their growth-law expressions, with ratio
    columns and flags for the rows outside `_WIDTH_BAND`.  Refuses an empty
    table: no kinds or no shapes."""
    if not (kinds and shapes):
        raise ValidationError("a width table needs at least one kind and one shape")
    rows = []
    flagged = []
    for spec in kinds:
        for shape in shapes:
            est = gaussian_width_mc(spec, shape, draws, seed)
            rate = width_rate_expression(spec, shape)
            ratio = est.mean / rate
            row = {
                "kind": spec.kind,
                "shape": list(shape),
                "estimate": est.mean,
                "std_error": est.std_error,
                "rate_expression": rate,
                "ratio": ratio,
            }
            rows.append(row)
            if not (_WIDTH_BAND[0] <= ratio <= _WIDTH_BAND[1]):
                flagged.append(row)
    return {
        "kind": "width",
        "seed": seed,
        "draws": draws,
        "band": list(_WIDTH_BAND),
        "rows": rows,
        "flagged": flagged,
    }


# ---------------------------------------------------------------------------
# Constructive packings
# ---------------------------------------------------------------------------


@dataclass
class PackingSet:
    """A finite family with pairwise squared distances in a fixed window."""

    elements: list
    delta: float
    min_dist_sq: float
    max_dist_sq: float
    construction: str
    meta: dict

    def __post_init__(self):
        if len(self.elements) < 2:
            raise ValidationError("a packing needs at least two elements")

    # not `fields_to_json`: the elements are arrays, and `size` is derived
    def to_json(self):
        return {
            "construction": self.construction,
            "delta": self.delta,
            "size": len(self.elements),
            "min_dist_sq": self.min_dist_sq,
            "max_dist_sq": self.max_dist_sq,
            "meta": self.meta,
            "elements": [np.asarray(e).tolist() for e in self.elements],
        }


def verify_packing(elements, lo, hi):
    """Exhaustive pairwise distance check, independent of the construction.

    Distances are recomputed from the elements as sums of squared
    differences, one row against all later rows at a time; the Gram form
    ||a||^2 + ||b||^2 - 2<a, b> would round differently, and the extremes
    are written into reports.

    Returns (ok, min_sq, max_sq, offenders) where offenders lists the pairs
    outside [lo, hi] in (i, j) order.
    """
    flat = np.array([np.asarray(e, dtype=float).ravel() for e in elements])
    min_sq, max_sq = np.inf, 0.0
    offenders = []
    for i in range(len(flat) - 1):
        d2 = ((flat[i] - flat[i + 1 :]) ** 2).sum(axis=1)
        # fmin/fmax skip NaN distances: they are offenders, not extremes
        min_sq = min(min_sq, float(np.fmin.reduce(d2)))
        max_sq = max(max_sq, float(np.fmax.reduce(d2)))
        outside = ~((lo - 1e-12 <= d2) & (d2 <= hi + 1e-12))
        offenders.extend(
            (i, i + 1 + int(k), float(d2[k])) for k in np.flatnonzero(outside)
        )
    return (not offenders, min_sq, max_sq, offenders)


# Candidates drawn per batch by `_greedy`. Acceptance consumes no random
# numbers, so the chunk size changes no accepted set.
_PACKING_CHUNK = 4096
PACKING_KINDS = ("full", "sparse", "lowrank")  # the kinds of `hypercube_packing`


def _greedy(draw, budget, lo_dot, hi_dot):
    """Accept, in draw order, each of `budget` candidates whose inner
    product with every accepted one lies in [lo_dot, hi_dot].

    `draw(m)` returns the next m candidates as the rows of a float array of
    small integers, less any it drops.  Their inner products are integers,
    exact in float64, so the window decides without rounding.  A tile of
    products holds at most `regularizers._BATCH_ENTRIES`, the Monte-Carlo
    batch budget, whatever the accepted set.  Returns the accepted rows.
    """
    acc = np.empty((0, 0))
    for start in range(0, budget, _PACKING_CHUNK):
        flat = draw(min(_PACKING_CHUNK, budget - start))
        rows = np.arange(len(flat))
        b = 0
        while rows.size and b < len(acc):
            block = acc[b : b + max(1, regularizers._BATCH_ENTRIES // rows.size)]
            dots = flat[rows] @ block.T
            rows = rows[((lo_dot <= dots) & (dots <= hi_dot)).all(axis=1)]
            b += len(block)
        # accept the first passing row, then drop later rows outside its window
        new = []
        while rows.size:
            i, rows = rows[0], rows[1:]
            new.append(i)
            dots = flat[rows] @ flat[i]
            rows = rows[(lo_dot <= dots) & (dots <= hi_dot)]
        acc = np.concatenate([acc, flat[new]]) if len(acc) else flat[new]
    return acc


def hypercube_packing(
    d, delta, kind="full", budget=100000, seed=0, *, s=None, d1=None, d2=None, r=None
):
    """Greedy random packing constructions.

    Every kind draws integer candidates and accepts them through one greedy
    routine, on a window for their inner product with each accepted
    candidate; the elements are the accepted candidates times one scale `a`.

    ``full``: +-1 vectors in dimension `d`, at Hamming distance at least
    d/3 from each other, which for +-1 vectors is an inner product at most
    d - 2 ceil(d/3); `a` lands the squared distances inside
    [delta^2/4, delta^2].

    ``sparse``: `s`-sparse +-1 vectors, drawn one at a time (a support,
    then its signs), with `a` = delta / sqrt(2 s), so that disjoint supports
    lie delta^2 apart.  The squared distance is a^2 (2s - 2<u, v>), so the
    window [delta^2/8, delta^2] is 0 <= <u, v> <= floor(7s/8), exactly.

    ``lowrank``: rank-`r` matrices of shape (`d1`, `d2`) whose first r
    columns are a +-1 factor of full column rank (rank-deficient draws are
    dropped) and whose other columns are zero, on the Hamming floor of
    ``full`` over the d1 r sign coordinates.

    The +-1 kinds draw their candidates in chunks, which consume the same
    random stream as one draw per candidate.

    Raises ``ValidationError`` unless delta is a finite number > 0, budget
    an integer >= 1, kind one of the three, seed an integer >= 0, and the
    kind's own sizes integers (not bools) in range: `d` >= 6 for ``full`` and ``sparse``;
    `d1`, `d2` and `r` >= 1 for ``lowrank``, which ignores `d`.  Raises
    ``BudgetExhausted`` if fewer than two elements were accepted within the
    candidate budget.
    """
    if not (is_real(delta) and delta > 0):
        raise ValidationError(f"packing needs a finite delta > 0, got {delta}")
    budget = check_count("budget", budget, 1)
    check_choice("packing kind", kind, PACKING_KINDS)
    if kind != "lowrank" and not (is_int(d) and d >= 6):
        raise ValidationError(f"{kind} packing needs an integer d >= 6, got {d!r}")
    seed = check_count("seed", seed, 0)  # echoed in the packing's meta
    rng = np.random.default_rng(seed)
    if kind == "full":
        a = np.sqrt(3.0) * delta / (4.0 * np.sqrt(d))
        floor = d / 3.0
        signs = _greedy(
            lambda m: _signs(rng, (m, d)),
            budget, -d, d - 2 * math.ceil(floor),
        )
        lo, hi = delta**2 / 4.0, delta**2
        meta = {"dimension": d, "hamming_floor": floor}
    elif kind == "sparse":
        if not (is_int(s) and 1 <= s <= d):
            raise ValidationError(f"sparse packing needs an integer 1 <= s <= d, got {s!r}")

        def draw(m):
            rows = np.zeros((m, d))
            for row in rows:
                # the support is drawn before its signs
                support = rng.choice(d, size=s, replace=False)
                row[support] = _signs(rng, s)
            return rows

        a = delta / np.sqrt(2.0 * s)
        signs = _greedy(draw, budget, 0, 7 * s // 8)
        lo, hi = delta**2 / 8.0, delta**2
        meta = {"dimension": d, "sparsity": s}
    else:
        if not all(is_int(v) and v >= 1 for v in (d1, d2, r)):
            raise ValidationError(f"lowrank packing needs integers >= 1, got {d1=}, {d2=}, {r=}")
        if min(d1, d2) < r:
            raise ValidationError("rank exceeds matrix dimensions")
        ncoord = d1 * r
        a = delta / (2.0 * np.sqrt(ncoord))
        floor = ncoord / 3.0

        def draw(m):
            chunk = _signs(rng, (m, d1, r))
            return chunk[np.linalg.matrix_rank(chunk) >= r].reshape(-1, ncoord)

        signs = _greedy(draw, budget, -ncoord, ncoord - 2 * math.ceil(floor))
        signs = np.pad(signs.reshape(-1, d1, r), ((0, 0), (0, 0), (0, d2 - r)))
        lo, hi = delta**2 / 4.0, delta**2
        meta = {"d1": d1, "d2": d2, "rank": r, "hamming_floor": floor}

    accepted = list(a * signs)
    if len(accepted) < 2:
        raise BudgetExhausted(f"accepted only {len(accepted)} elements within budget {budget}")
    ok, min_sq, max_sq, _ = verify_packing(accepted, lo, hi)
    meta.update(
        budget=budget, seed=seed, verified=ok,
        log_size_per_dim=float(np.log(len(accepted)) / d) if kind != "lowrank" else None,
    )
    return PackingSet(elements=accepted, delta=float(delta), min_dist_sq=min_sq,
                      max_dist_sq=max_sq, construction=kind, meta=meta)


def fano_precondition_check(pack, n, c_u, delta):
    """Mechanically verify the two information-theoretic preconditions:
    log m >= 128 n delta^2, and every pairwise squared distance inside
    [n delta^2 / c_u^2, 8 n delta^2 / c_u^2].

    Only the preconditions are checked; the minimax claim itself is a
    statistical statement about all estimators and is not computable from
    one dataset.  Refuses an `n` that is not an integer >= 1, and a `c_u` or
    `delta` that is not a finite number > 0.
    """
    check_count("n", n, 1)
    check_real("c_u", c_u, 0, strict=True)
    check_real("delta", delta, 0, strict=True)
    m = len(pack.elements)
    log_m = float(np.log(m))
    required = 128.0 * n * delta**2
    lo = n * delta**2 / c_u**2
    hi = 8.0 * n * delta**2 / c_u**2
    ok_window, min_sq, max_sq, offenders = verify_packing(pack.elements, lo, hi)
    return {
        "log_m": log_m,
        "required_log_m": required,
        "log_m_ok": log_m >= required,
        "window": [lo, hi],
        "min_dist_sq": min_sq,
        "max_dist_sq": max_sq,
        "window_ok": ok_window,
        "offending_pairs": [[i, j, d2] for i, j, d2 in offenders],
        "ok": bool(log_m >= required and ok_window),
    }


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

REPORT_FORMATS = ("json", "csv")  # the formats of `emit_report`
CSV_REPORT_KINDS = ("rate", "width")  # the reports with a CSV form, named as their commands


def emit_report(report, fmt="json"):
    """Serialize a report deterministically and return the text.

    JSON output sorts keys and round-trips exactly through ``json.loads``;
    CSV output is a rate report's cells plus a summary block, or a width
    report's rows.
    """
    check_choice("format", fmt, REPORT_FORMATS)
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    return _report_csv(report)


def _report_csv(report):
    """One table of rows with the first row's keys as its header, floats as
    ``repr`` and a shape as ``d1xd2xd3``: a rate report's cells, then a
    summary of its fit and its per-n medians, or a width report's rows."""
    kind = report.get("kind")
    check_choice("CSV report kind", kind, CSV_REPORT_KINDS)

    def text(v):
        if isinstance(v, float):
            return repr(v)
        return "x".join(map(str, v)) if isinstance(v, list) else v

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = report["cells" if kind == "rate" else "rows"]
    writer.writerow(rows[0])
    writer.writerows([text(v) for v in row.values()] for row in rows)
    if kind == "rate":
        summary = dict(report["fit"])
        for row in report["per_n"]:
            summary[f"median_fro_sq_n{row['n']}"] = row["median_fro_sq"]
        writer.writerows([[], ["summary_key", "value"]])
        writer.writerows([key, text(v)] for key, v in summary.items())
    return buf.getvalue()
