"""The JSON codec of the spec and config dataclasses (`fields_to_json`,
`fields_from_json`), through the classes that read and write with it."""

import re
from dataclasses import fields

import pytest

from tenreg.datagen import ModelClassSpec
from tenreg.errors import ValidationError
from tenreg.harness import RateExperimentConfig
from tenreg.regularizers import RegularizerSpec, entry_l1, fiber_group, slice_frob
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
