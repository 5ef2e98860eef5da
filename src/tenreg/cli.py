"""Command-line interface.

Subcommands: ``gen`` (draw a problem from a truth class), ``solve`` (run a
solver on a stored problem), ``width`` (Gaussian width table), ``rate``
(rate-verification sweep from a config file), ``packing`` (greedy packing
construction), ``var-extrema`` (spectral extrema of a VAR model).

Exit codes: 0 success, 2 validation error, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import datagen, harness, solver
from .errors import TenregError, ValidationError, check_count, check_shape
from .regularizers import RegularizerSpec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGED = 3


# Shorthands that take no argument, and the kinds they name.
_BARE_KINDS = {
    "entry_l1": "entry_l1", "matricized_nuclear_sum": "matricized_nuclear_sum",
    "tensor_spectral": "tensor_spectral_dual_only", "pairwise": "pairwise_component_nuclear",
}


def _parse_reg(text):
    """Penalty shorthand: ``entry_l1``, ``fiber_group:1``,
    ``slice_frob:0,1``, ``slice_nuclear:1,2``, ``matricized_nuclear_sum``,
    ``tensor_spectral``, ``pairwise``, or a JSON object / path to one.  An
    argument after a shorthand that takes none is refused."""
    text = text.strip()
    if os.path.exists(text) or text.startswith("{"):
        return RegularizerSpec.from_json(_load_json_arg(text))
    name, colon, arg = text.partition(":")
    if name in _BARE_KINDS and not colon:
        return RegularizerSpec(_BARE_KINDS[name])
    if name == "fiber_group":
        return RegularizerSpec("fiber_group", mode=int(arg or 0))
    if name in ("slice_frob", "slice_nuclear"):
        axes = tuple(int(v) for v in (arg or "0,1").split(","))
        return RegularizerSpec(name, axes=axes)
    raise ValidationError(f"cannot parse regularizer {text!r}")


def _parse_kinds(text):
    """Split a comma-separated kinds list, keeping numeric axis suffixes
    (e.g. ``slice_frob:0,1``) attached to their shorthand."""
    kinds = []
    for token in text.split(","):
        token = token.strip()
        if kinds and token.isdigit():
            kinds[-1] += "," + token
        else:
            kinds.append(token)
    return [_parse_reg(k) for k in kinds]


def _parse_shapes(text):
    dims = (tuple(int(v) for v in part.split("x")) for part in text.split(","))
    return [check_shape("shape", shape) for shape in dims]


def _load_json_arg(text):
    if os.path.exists(text):
        with open(text) as fh:
            return json.load(fh)
    return json.loads(text)


def _write_output(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


@functools.cache
def build_parser():
    """The parser, built once per process: parsing reads it and leaves it as
    it was, so every call starts from the same defaults."""
    parser = argparse.ArgumentParser(prog="tenreg")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="draw a problem from a truth class")
    p_gen.add_argument("--spec", required=True, help="ModelClassSpec JSON or path")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--split", type=int, default=3)
    p_gen.add_argument("--sigma", type=float, default=1.0)

    p_solve = sub.add_parser("solve", help="solve a stored problem")
    p_solve.add_argument("--problem", required=True, help="problem directory")
    p_solve.add_argument("--regularizer", required=True)
    p_solve.add_argument("--lam", default="auto")
    p_solve.add_argument("--multiplier", type=float, default=1.0)
    p_solve.add_argument("--c-u", type=float, default=1.0)
    p_solve.add_argument("--width-draws", type=int, default=2000)
    p_solve.add_argument("--max-iters", type=int, default=2000)

    p_width = sub.add_parser("width", help="Gaussian width table")
    p_width.add_argument("--kinds", required=True, help="comma-separated shorthands")
    p_width.add_argument("--shapes", required=True, help="e.g. 5x5x5,10x10x10")
    p_width.add_argument("--draws", type=int, default=2000)

    p_rate = sub.add_parser("rate", help="rate-verification sweep")
    p_rate.add_argument("--config", required=True, help="RateExperimentConfig JSON")

    p_pack = sub.add_parser("packing", help="greedy packing construction")
    p_pack.add_argument("--kind", choices=["full", "sparse", "lowrank"], default="full")
    p_pack.add_argument("--d", type=int, default=12)
    p_pack.add_argument("--delta", type=float, required=True)
    p_pack.add_argument("--budget", type=int, default=100000)
    p_pack.add_argument("--s", type=int, default=None)
    p_pack.add_argument("--d1", type=int, default=None)
    p_pack.add_argument("--d2", type=int, default=None)
    p_pack.add_argument("--r", type=int, default=None)

    p_var = sub.add_parser("var-extrema", help="VAR spectral extrema")
    p_var.add_argument("--model", required=True, help="VarModel JSON or path")
    p_var.add_argument("--grid", type=int, default=64)

    return parser


def _cmd_gen(args):
    spec = datagen.ModelClassSpec.from_json(_load_json_arg(args.spec))
    if spec.kind == "t3":  # a VAR series of lag windows, in its one layout
        seeds = [(args.seed, args.seed)]
        (problem,) = datagen.gen_samples(spec, args.n, args.split, args.sigma, seeds)
    else:
        truth = datagen.gen_truth(spec, args.seed)
        problem = datagen.gen_problem(truth, args.n, args.split, args.sigma, seed=args.seed)
    cert = datagen.class_certificate(spec, problem.truth)
    if not cert["ok"]:
        raise ValidationError(f"generated truth failed its certificate: {cert}")
    problem.meta.update({"class": spec.to_json(), "seed": args.seed, "certificate": cert})
    out = args.out or "problem"
    manifest = solver.save_problem(out, problem)
    sys.stdout.write(manifest + "\n")
    return EXIT_OK


def _cmd_solve(args):
    problem = solver.load_problem(args.problem)
    reg = _parse_reg(args.regularizer)
    # refuse what `solve` would before the rule's width draws, as
    # `auto_lambda` refuses the rule's own inputs
    check_count("max_iters", args.max_iters, 1)
    solver._check_solvable(reg, problem.truth_shape, problem.resp_shape)
    if args.lam == "auto":
        _, (lam,) = harness.auto_lambda(
            reg,
            problem.truth_shape,
            [problem.n],
            problem.noise_sigma,
            args.width_draws,
            args.seed,
            workers=args.threads,
            c_u=args.c_u,
            multiplier=args.multiplier,
        )
    else:
        lam = float(args.lam)
    res = solver.solve(problem, reg, lam, args.max_iters)
    _write_output(harness.emit_report(res.to_json()), args.out)
    return EXIT_OK if res.status == "Converged" else EXIT_NONCONVERGED


def _cmd_width(args):
    kinds = _parse_kinds(args.kinds)
    shapes = _parse_shapes(args.shapes)
    report = harness.width_experiment(
        kinds, shapes, draws=args.draws, seed=args.seed, workers=args.threads
    )
    _write_output(harness.emit_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_rate(args):
    config = harness.RateExperimentConfig.from_json(_load_json_arg(args.config))
    report = harness.rate_experiment(config)
    _write_output(harness.emit_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_packing(args):
    pack = harness.hypercube_packing(
        args.d,
        args.delta,
        kind=args.kind,
        budget=args.budget,
        seed=args.seed,
        s=args.s,
        d1=args.d1,
        d2=args.d2,
        r=args.r,
    )
    _write_output(harness.emit_report(pack.to_json()), args.out)
    return EXIT_OK


def _cmd_var_extrema(args):
    model = datagen.VarModel.from_json(_load_json_arg(args.model))
    result = datagen.var_spectral_extrema(model, grid=args.grid)
    _write_output(harness.emit_report(result), args.out)
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "width": _cmd_width,
    "rate": _cmd_rate,
    "packing": _cmd_packing,
    "var-extrema": _cmd_var_extrema,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_count("workers", args.threads, 1)
        with np.errstate(over="raise"):
            return _COMMANDS[args.command](args)
    except (TenregError, ValueError, OSError, FloatingPointError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
