"""The JSON codec of the spec and config dataclasses (`fields_to_json`,
`fields_from_json`), through the classes that read and write with it; the
input rules `check_count`, `check_seed` and `check_real` at the entry
points that take a count, a seed or a scale, and the finite, magnitude,
choice, shape, fiber-mode and split rules at the entry points that take an
array, a truth magnitude, a named option, a shape, a fiber mode or a
covariate split; and the errors that report an outcome, not a refusal."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from tenreg import datagen, errors, harness, regularizers, solver, spectral, tensor
from tenreg.datagen import ModelClassSpec, VarModel, gen_var_model
from tenreg.errors import ValidationError, check_count, check_real
from tenreg.harness import RateExperimentConfig
from tenreg.regularizers import RegularizerSpec, entry_l1, fiber_group, slice_frob
from tenreg.regularizers import slicewise_projectors, subspace_project, support_entries
from tenreg.regularizers import support_fibers
from tenreg.spectral import WidthEstimate

MODEL_JSON = {"kind": "theta1", "shape": [3, 3, 3]}
RATE_JSON = {
    "model": {**MODEL_JSON, "s": 2},  # a class its cells can draw
    "regularizer": {"kind": "entry_l1"},
    "n_grid": [50, 100, 200, 400],
    "replications": 10,
    "seed": 0,
    "rate_tag": "s_log_total_over_n",
}
MODEL = ModelClassSpec(kind="theta1", shape=(3, 3, 3))
RATE = RateExperimentConfig(
    model=ModelClassSpec(kind="theta1", shape=(3, 3, 3), s=2),
    regularizer=entry_l1(),
    n_grid=(50, 100, 200, 400),
    replications=10,
    seed=0,
    rate_tag="s_log_total_over_n",
)

# class, its JSON with only the required keys, the constructor called with
# them, and the name its missing-key messages give it
CASES = [
    (RateExperimentConfig, RATE_JSON, RATE, "rate config"),
    (ModelClassSpec, MODEL_JSON, MODEL, "model class"),
    (RegularizerSpec, {"kind": "entry_l1"}, RegularizerSpec(kind="entry_l1"), "regularizer"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, obj, want, what", CASES, ids=IDS)
def test_required_keys_alone_give_the_dataclass_defaults(cls, obj, want, what):
    assert cls.from_json(obj) == want


@pytest.mark.parametrize("cls, obj, want, what", CASES, ids=IDS)
def test_every_missing_required_key_is_named(cls, obj, want, what):
    for key in obj:
        less = {k: v for k, v in obj.items() if k != key}
        message = f"{what} JSON needs the key {key!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            cls.from_json(less)


@pytest.mark.parametrize("cls, obj, want, what", CASES, ids=IDS)
@pytest.mark.parametrize("bad", [[1, 2], "kind"], ids=["list", "str"])
def test_json_that_is_not_an_object_is_a_validation_error(cls, obj, want, what, bad):
    with pytest.raises(ValidationError, match=f"{what} JSON needs the key"):
        cls.from_json(bad)


def test_pairwise_regularizer_passes_as_a_string():
    cfg = RateExperimentConfig.from_json(
        {**RATE_JSON, "model": {"kind": "t4", "shape": [3, 3, 3], "r": 1},
         "regularizer": "pairwise", "rate_tag": "r_max_dim_over_n", "split": 3}
    )
    pairwise = RegularizerSpec("pairwise_component_nuclear")
    assert cfg.regularizer == pairwise
    assert cfg.to_json()["regularizer"] == {"kind": "pairwise_component_nuclear"}
    assert RateExperimentConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize(
    "obj",
    [
        RATE,
        MODEL,
        WidthEstimate(
            mean=1.0, std_error=0.1, draws=100, lemma_bound_form="sqrt_sum_dims",
            seed=0, shape=(2, 2, 2), kind="entry_l1",
        ),
    ],
    ids=lambda obj: type(obj).__name__,
)
def test_to_json_keys_are_the_field_names(obj):
    assert list(obj.to_json()) == [f.name for f in fields(obj)]


# a penalty writes only the fields its kind takes, in field order
@pytest.mark.parametrize(
    "spec, keys",
    [(entry_l1(), ["kind"]), (fiber_group(1), ["kind", "mode"]),
     (slice_frob((0, 2)), ["kind", "axes"])],
    ids=lambda v: getattr(v, "kind", ""),
)
def test_regularizer_to_json_keys_are_the_fields_its_kind_takes(spec, keys):
    assert list(spec.to_json()) == keys
    assert RegularizerSpec.from_json(spec.to_json()) == spec


# class, its JSON, and a misspelled key of it (nested ones in the rate
# config's model and regularizer)
UNKNOWN_KEYS = [
    (RateExperimentConfig, {**RATE_JSON, "max_iter": 5, "noise_simga": 0.0},
     "rate config", ["max_iter", "noise_simga"]),
    (RateExperimentConfig, {**RATE_JSON, "model": {**RATE_JSON["model"], "magnitdue": 5}},
     "model class", ["magnitdue"]),
    (RateExperimentConfig, {**RATE_JSON, "regularizer": {"kind": "entry_l1", "mdoe": 1}},
     "regularizer", ["mdoe"]),
    (ModelClassSpec, {**MODEL_JSON, "magnitdue": 5}, "model class", ["magnitdue"]),
    (RegularizerSpec, {"kind": "fiber_group", "mdoe": 1}, "regularizer", ["mdoe"]),
    (VarModel, {**gen_var_model(2, 1, 1).to_json(), "burnin": 10}, "VAR model", ["burnin"]),
]


@pytest.mark.parametrize(
    "cls, obj, what, keys", UNKNOWN_KEYS,
    ids=["rate", "rate-model", "rate-regularizer", "model", "regularizer", "var"],
)
def test_unknown_keys_are_named(cls, obj, what, keys):
    message = f"{what} JSON has unknown keys {keys}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        cls.from_json(obj)


def test_validation_error_is_a_value_error():
    assert issubclass(ValidationError, ValueError)


def test_checks_take_numpy_numbers_and_give_a_count_as_int():
    count = check_count("n", np.int64(5), 1)
    assert count == 5 and type(count) is int
    check_real("sigma", np.float64(0.5), 0)


SHAPE = (3, 3, 3)
SUB = support_entries(SHAPE, [(0, 0, 0)])
PROBLEM = solver.RegressionProblem(
    np.random.default_rng(0).standard_normal((10,) + SHAPE), np.ones(10), 3
)
RATE_FIELDS = dict(
    model=ModelClassSpec("theta1", SHAPE, s=2), regularizer=entry_l1(),
    n_grid=(50, 100, 200, 400), replications=10, seed=0, rate_tag="s_log_total_over_n",
)

# entry point: (call with the bad value, the step after the check, the
# argument's name, "count" or "real", the least value allowed)
ENTRY_POINTS = {
    "width-draws": (lambda v: spectral.gaussian_width_mc(entry_l1(), SHAPE, v),
                    (spectral, "_batch_draws"), "draws", "count", 100),
    "fista-lam": (lambda v: solver.fista_solve(PROBLEM, entry_l1(), v),
                  (solver, "_operator"), "lam", "real", 0),
    "admm-lam": (lambda v: solver.admm_matricized(PROBLEM, v),
                 (solver, "_operator"), "lam", "real", 0),
    "fista-max_iters": (lambda v: solver.fista_solve(PROBLEM, entry_l1(), 0.1, max_iters=v),
                        (solver, "_operator"), "max_iters", "count", 1),
    "fista-kkt_tol": (lambda v: solver.fista_solve(PROBLEM, entry_l1(), 0.1, kkt_tol=v),
                      (solver, "_operator"), "kkt_tol", "real", 0),
    "pairwise-kkt_tol": (lambda v: solver.fista_pairwise(PROBLEM, 0.1, kkt_tol=v),
                         (solver, "_operator"), "kkt_tol", "real", 0),
    "admm-max_iters": (lambda v: solver.admm_matricized(PROBLEM, 0.1, max_iters=v),
                       (solver, "_operator"), "max_iters", "count", 1),
    "admm-tol": (lambda v: solver.admm_matricized(PROBLEM, 0.1, tol=v),
                 (solver, "_operator"), "tol", "real", 0),
    "solve-max_iters": (lambda v: solver.solve(PROBLEM, entry_l1(), math.nan, v),
                        (solver, "_operator"), "max_iters", "count", 1),
    "prox-t": (lambda v: regularizers.prox(entry_l1(), np.ones(SHAPE), v),
               (regularizers, "_check_order3"), "t", "real", 0),
    "svt-t": (lambda v: spectral.matrix_svt(np.ones((3, 3)), v),
              (np.linalg, "svd"), "t", "real", 0),
    "risk-lam": (lambda v: solver.risk_bound_predicted(entry_l1(), SUB, v),
                 (solver, "_matched_bound"), "lam", "real", 0),
    "lambda-rule-width": (lambda v: solver.lambda_rule(v, 100), (np, "sqrt"), "width", "real", 0),
    "compat-draws": (lambda v: regularizers.compatibility(entry_l1(), SUB, draws=v),
                     (regularizers, "_matched_bound"), "draws", "count", 0),
    "compat-ascent_steps": (
        lambda v: regularizers.compatibility(entry_l1(), SUB, ascent_steps=v),
        (regularizers, "_matched_bound"), "ascent_steps", "count", 0),
    "packing-budget": (lambda v: harness.hypercube_packing(12, 1.0, budget=v),
                       (harness, "_greedy"), "budget", "count", 1),
    "var-burn_in": (lambda v: VarModel(np.zeros((1, 2, 2)), burn_in=v),
                    (datagen, "_spectral_radius"), "burn_in", "count", 0),
    "var-extrema-grid": (lambda v: datagen.var_spectral_extrema(gen_var_model(2, 1, 1), grid=v),
                         (np.linalg, "eigvalsh"), "grid", "count", 64),
    "var-model-m": (lambda v: datagen.gen_var_model(v, 1, 1),
                    (np.random, "default_rng"), "m", "count", 1),
    "var-model-p": (lambda v: datagen.gen_var_model(2, v, 1),
                    (np.random, "default_rng"), "p", "count", 1),
    "var-model-s": (lambda v: datagen.gen_var_model(2, 1, v),
                    (np.random, "default_rng"), "s", "count", 1),
    "width-seed": (lambda v: spectral.gaussian_width_mc(entry_l1(), SHAPE, 100, seed=v),
                   (spectral, "_batch_draws"), "seed", "count", 0),
    "exact-width-seed": (lambda v: harness.auto_lambda(entry_l1(), SHAPE, [50], 1.0, 100, v),
                         (spectral, "gaussian_width"), "seed", "count", 0),
    "pairwise-width-seed": (lambda v: harness.pairwise_width_mc(SHAPE, 100, v),
                            (spectral, "_batch_draws"), "seed", "count", 0),
    "exact-width-draws": (lambda v: harness.auto_lambda(entry_l1(), SHAPE, [50], 1.0, v, 0),
                          (spectral, "gaussian_width"), "draws", "count", 100),
    "pairwise-width-draws": (lambda v: harness.pairwise_width_mc(SHAPE, v),
                             (spectral, "_batch_draws"), "draws", "count", 100),
    "width-table-draws": (lambda v: harness.width_experiment([entry_l1()], [SHAPE], v),
                          (spectral, "_batch_draws"), "draws", "count", 100),
    "width-table-seed": (lambda v: harness.width_experiment([entry_l1()], [SHAPE], 100, v),
                         (spectral, "_batch_draws"), "seed", "count", 0),
    "packing-seed": (lambda v: harness.hypercube_packing(12, 1.0, seed=v),
                     (np.random, "default_rng"), "seed", "count", 0),
    "rate-seed": (lambda v: RateExperimentConfig(**{**RATE_FIELDS, "seed": v}),
                  (harness, "predicted_rate"), "seed", "count", 0),
    "truth-seed": (lambda v: datagen.gen_truth(RATE_FIELDS["model"], v),
                   (np.random, "default_rng"), "seed", "count", 0),
    "pairwise-components-seed": (
        lambda v: datagen.gen_pairwise_components(ModelClassSpec("t4", SHAPE, r=1), v),
        (np.random, "default_rng"), "seed", "count", 0),
    "gen_problem-seed": (lambda v: datagen.gen_problem(np.ones(SHAPE), 10, 3, 1.0, seed=v),
                         (np.random, "default_rng"), "seed", "count", 0),
    "wishart-seed": (lambda v: datagen.gen_sufficient_stats(np.ones(SHAPE), 100, 3, 1.0, v),
                     (np.random, "default_rng"), "seed", "count", 0),
    "var-model-seed": (lambda v: datagen.gen_var_model(2, 1, 1, seed=v),
                       (np.random, "default_rng"), "seed", "count", 0),
    "var-panel-seed": (lambda v: datagen.gen_var_panel([gen_var_model(2, 1, 1)], 10, [v]),
                       (datagen, "_var_group"), "seed", "count", 0),
    "gen_problem-n": (lambda v: datagen.gen_problem(np.ones(SHAPE), v, 3, 1.0),
                      (np.random, "default_rng"), "n", "count", 1),
    "gen_samples-sigma": (lambda v: datagen.gen_samples(RATE_FIELDS["model"], 20, 3, v, [(0, 0)]),
                          (datagen, "gen_truth"), "noise_sigma", "real", 0),
    "problem-sigma": (lambda v: solver.RegressionProblem(np.ones((2,) + SHAPE), np.ones(2), 3, v),
                      (solver, "_check_truth"), "noise_sigma", "real", 0),
    "rate-n": (lambda v: harness.predicted_rate("s_log_total_over_n", RATE_FIELDS["model"], v),
               (harness, "_width_sq"), "n", "real", 1),
    "rate-width_draws": (lambda v: RateExperimentConfig(**RATE_FIELDS, width_draws=v),
                         (harness, "predicted_rate"), "width_draws", "count", 100),
    "rate-max_iters": (lambda v: RateExperimentConfig(**RATE_FIELDS, max_iters=v),
                       (harness, "_check_solvable"), "max_iters", "count", 1),
    "rate-noise_sigma": (lambda v: RateExperimentConfig(**RATE_FIELDS, noise_sigma=v),
                         (harness, "_check_solvable"), "noise_sigma", "real", 0),
}
BAD = {"count": {"true": True, "fraction": 2.5, "below": None},
       "real": {"true": True, "nan": math.nan, "below": None}}


@pytest.mark.parametrize(
    "entry, bad",
    [(e, b) for e, (*_, kind, _least) in ENTRY_POINTS.items() for b in BAD[kind]],
    ids=lambda v: v,
)
def test_bad_count_or_scale_is_refused_before_any_work(monkeypatch, entry, bad):
    call, step, name, kind, least = ENTRY_POINTS[entry]
    value = BAD[kind][bad]
    if value is None:
        value = least - 1 if kind == "count" else least - 0.5
    if step is not None:
        monkeypatch.setattr(*step, pytest.fail)
    rule = "an integer" if kind == "count" else "a finite number"
    message = f"{name} must be {rule} >= {least}, got {value!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        call(value)


@pytest.mark.parametrize("c_ell", [True, math.nan, 0.0, 2.0])
def test_risk_bound_refuses_a_bad_c_ell_before_any_work(monkeypatch, c_ell):
    monkeypatch.setattr(solver, "_matched_bound", pytest.fail)
    with pytest.raises(ValidationError, match=re.escape("need c_u >= c_ell > 0")):
        solver.risk_bound_predicted(entry_l1(), SUB, 0.1, c_ell=c_ell)


@pytest.mark.parametrize("rho", [math.nan, 1.0, -0.1, True, "0.5"])
def test_var_model_refuses_a_bad_target_rho_before_any_draw(monkeypatch, rho):
    monkeypatch.setattr(np.random, "default_rng", pytest.fail)
    message = f"target_rho must be a finite number in [0, 1), got {rho!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        gen_var_model(2, 1, 1, target_rho=rho)


def test_seed_rule_keeps_a_seed_sequence_and_gives_an_integer_as_int():
    seq = np.random.SeedSequence(5)
    assert errors.check_seed(seq) is seq
    seed = errors.check_seed(np.int64(5))
    assert seed == 5 and type(seed) is int


TRIPLE = tensor.ProjectorTriple([np.eye(3)[:, :1]] * 3)
PAIR = (np.eye(3)[:, :1], np.eye(3)[:, :1])
STATS = dict(gram=np.eye(9), xty=np.ones(SHAPE), yty=1.0, n=4, split=2)

# entry point: (call with the bad value, the step after the check or None,
# the rule and its argument: the array's, number's, option's or shape's
# name, nothing for a fiber mode, or a split's order)
RULE_ENTRY_POINTS = {
    "problem-covariates": (
        lambda v: solver.RegressionProblem(np.full((2,) + SHAPE, v), np.ones(2), 3),
        (solver, "_check_truth"), "finite", "covariates"),
    "stats-gram": (lambda v: solver.SufficientStats(**{**STATS, "gram": np.full((9, 9), v)}),
                   (solver, "_check_truth"), "finite", "gram"),
    "stats-yty": (lambda v: solver.SufficientStats(**{**STATS, "yty": v}),
                  (solver, "_check_truth"), "finite", "yty"),
    "hopm-tensor": (lambda v: spectral.hopm_spectral(np.full(SHAPE, v)),
                    (spectral, "matricize"), "finite", "tensor entries"),
    "var-model-coeffs": (lambda v: VarModel(np.full((1, 2, 2), v)),
                         (datagen, "_spectral_radius"), "finite", "coeffs"),
    "penalty-kind": (lambda v: RegularizerSpec(v), None, "choice", "penalty kind"),
    "class-kind": (lambda v: ModelClassSpec(v, SHAPE), (datagen, "check_shape"),
                   "choice", "class kind"),
    "subspace-variant": (lambda v: regularizers.SubspaceSpec(v, SHAPE), None,
                         "choice", "subspace variant"),
    "subspace-role": (lambda v: slicewise_projectors(SHAPE, (PAIR,) * 3, role=v),
                      (regularizers, "_orthonormal"), "choice", "role"),
    "project-which": (lambda v: subspace_project(SUB, np.ones(SHAPE), v),
                      (regularizers, "_support_mask"), "choice", "which"),
    "tucker-pattern": (lambda v: tensor.tucker_project(np.ones(SHAPE), TRIPLE, v),
                       (tensor.ProjectorTriple, "apply_mode"), "choice", "pattern"),
    "rate-tag": (lambda v: harness.predicted_rate(v, RATE_FIELDS["model"], 100),
                 (harness, "_width_sq"), "choice", "rate tag"),
    "packing-kind": (lambda v: harness.hypercube_packing(12, 1.0, kind=v),
                     (np.random, "default_rng"), "choice", "packing kind"),
    "report-format": (lambda v: harness.emit_report({"kind": "width"}, v),
                      (harness, "_report_csv"), "choice", "format"),
    "csv-report-kind": (lambda v: harness.emit_report({"kind": v}, "csv"),
                        (harness.csv, "writer"), "choice", "CSV report kind"),
    "class-magnitude": (lambda v: ModelClassSpec("theta1", SHAPE, magnitude=v),
                        (datagen, "_fiber_mode"), "number", "magnitude"),
    "var-model-magnitude": (lambda v: gen_var_model(2, 1, 1, magnitude=v),
                            (np.random, "default_rng"), "number", "magnitude"),
    "class-shape": (lambda v: ModelClassSpec("theta1", v), (datagen, "_fiber_mode"),
                    "shape", "shape"),
    "width-shape": (lambda v: spectral.gaussian_width_mc(entry_l1(), v, 100),
                    (spectral, "_batch_draws"), "shape", "shape"),
    "exact-width-shape": (lambda v: spectral.gaussian_width(entry_l1(), v),
                          (spectral, "_chi_max_mean"), "shape", "shape"),
    "auto-lambda-shape": (lambda v: harness.auto_lambda(entry_l1(), v, [50], 1.0, 100, 0),
                          (spectral, "gaussian_width"), "shape", "shape"),
    "pairwise-width-shape": (lambda v: harness.pairwise_width_mc(v, 100),
                             (spectral, "_batch_draws"), "shape", "shape"),
    "penalty-mode": (lambda v: RegularizerSpec("fiber_group", mode=v), None, "mode", None),
    "class-mode": (lambda v: ModelClassSpec("theta2", SHAPE, mode=v),
                   (datagen, "_group_axis"), "mode", None),
    "support-mode": (lambda v: support_fibers(SHAPE, [(0, 0)], mode=v), None, "mode", None),
    "gen_problem-split": (lambda v: datagen.gen_problem(np.ones(SHAPE), 10, v, 1.0),
                          (np.random, "default_rng"), "split", 3),
    "wishart-split": (lambda v: datagen.gen_sufficient_stats(np.ones(SHAPE), 100, v, 1.0),
                      (np.random, "default_rng"), "split", 3),
    "gen_samples-split": (lambda v: datagen.gen_samples(RATE_FIELDS["model"], 20, v, 1.0,
                                                        [(0, 0)]),
                          (datagen, "_check_var_layout"), "split", 3),
    "stats-split": (lambda v: solver.SufficientStats(**{**STATS, "split": v}),
                    (solver, "_check_truth"), "split", 3),
    "problem-split": (lambda v: solver.RegressionProblem(np.ones((2,) + SHAPE), np.ones(2), v),
                      (solver, "_check_truth"), "split", 3),
    "rate-split": (lambda v: RateExperimentConfig(**RATE_FIELDS, split=v),
                   (harness, "predicted_rate"), "split", 3),
}
RULE_BAD = {
    "finite": {"nan": math.nan, "inf": math.inf, "-inf": -math.inf},
    "number": {"nan": math.nan, "inf": math.inf, "true": True},
    "choice": {"typo": "nope", "none": None, "list": ["entry_l1"]},
    "shape": {"order-2": (3, 3), "zero": (3, 0, 3), "float": (3, 2.0, 3),
              "bool": (True, 3, 3), "none": None},
    "mode": {"five": 5, "negative": -1, "float": 1.0, "bool": True, "none": None},
    "split": {"zero": 0, "four": 4, "fraction": 1.5, "true": True, "none": None},
}


def _rule_message(rule, arg, value):
    """The one wording of `rule` for the bad `value`."""
    if rule == "finite":
        return f"{arg} must be finite"
    if rule == "number":
        return f"{arg} must be a finite number, got {value!r}"
    if rule == "choice":
        return f"unknown {arg} {value!r}: choose one of "
    if rule == "shape":
        return f"{arg} must be three integers >= 1, got {value!r}"
    if rule == "mode":
        return f"mode must be an integer 0, 1 or 2, got {value!r}"
    return f"split must be an integer in 1..{arg}, got {value!r}"


@pytest.mark.parametrize(
    "entry, bad",
    [(e, b) for e, (_call, _step, rule, _arg) in RULE_ENTRY_POINTS.items()
     for b in RULE_BAD[rule]],
    ids=lambda v: v,
)
def test_bad_input_is_refused_by_its_rule_before_any_work(monkeypatch, entry, bad):
    call, step, rule, arg = RULE_ENTRY_POINTS[entry]
    value = RULE_BAD[rule][bad]
    if step is not None:
        monkeypatch.setattr(*step, pytest.fail)
    with pytest.raises(ValidationError, match=re.escape(_rule_message(rule, arg, value))):
        call(value)


@pytest.mark.parametrize("name", ["SvdFailure", "BudgetExhausted"])
def test_an_outcome_is_not_a_refusal(name):
    cls = getattr(errors, name)
    assert issubclass(cls, errors.TenregError)
    assert not issubclass(cls, ValidationError)
