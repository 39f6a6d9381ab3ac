"""The public surface, pinned: entry-point parameter names and TrialConfig fields.

Every setting a caller can pass is listed here, so adding, renaming or
removing one is a visible change to this file.  Values that no caller
needs to set are module constants (`hlcert.tensor.PATTERN_BUDGET`,
`DEFAULT_BLOCK`, `MAX_ENTRIES`, `hlcert.certify.RATIO_TOL`), which tests
patch instead.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import hlcert
from hlcert import DomainError, ScalarField, TrialConfig, generate
from hlcert import tensor as tensor_module

PUBLIC_PARAMETERS = {
    "alternating_max": ("T", "p", "restarts", "seed"),
    "certify": ("m", "n", "p", "lambda0", "field", "config", "seed"),
    "check_contraction": ("a", "t"),
    "check_khinchin": ("a", "q", "field", "samples", "seed"),
    "classical_exponents": ("m", "p"),
    "crude_upper": ("T", "p"),
    "dual_norm_linear": ("c", "p"),
    "evaluate": ("T", "vectors"),
    "exact_linf_enum": ("T",),
    "exponents": ("m", "p", "lambda0", "field", "strict"),
    "generate": ("kind", "m", "n", "field", "seed"),
    "khinchin_A": ("q", "field"),
    "mixed_norm": ("T", "fixed_index", "s", "alpha"),
    "rademacher_moment": ("a", "q"),
    "region": ("m", "lambda0"),
    "search_extremal": ("m", "n", "p", "lambda0", "field", "budget", "seed"),
    "steinhaus_moment": ("a", "q", "samples", "seed"),
    "sweep_lambda0": ("m", "p", "n", "field", "grid", "seed", "config"),
    "tensor_from_json": ("text",),
    "tensor_to_json": ("T",),
    "transfer": ("tp",),
    "verify_proof_chain": (
        "S", "lambda0", "s", "index", "mc_samples", "seed", "raise_on_failure",
    ),
}

ENUMERATION_PARAMETERS = {
    "iter_sign_blocks": ("nbits", "block"),
    "sign_slices": ("coeffs",),
    "contract_trailing_signs": ("coeffs", "signs"),
}

TRIAL_CONFIG_FIELDS = ("trials", "kinds", "restarts", "jobs", "keep_trials")


def _parameters(fn):
    return tuple(inspect.signature(fn).parameters)


def test_public_entry_points_take_the_pinned_parameters():
    exported = {
        name for name in dir(hlcert)
        if not name.startswith("_") and inspect.isfunction(getattr(hlcert, name))
    }
    assert exported == set(PUBLIC_PARAMETERS)
    for name, params in PUBLIC_PARAMETERS.items():
        assert _parameters(getattr(hlcert, name)) == params, name


def test_enumeration_core_takes_the_pinned_parameters():
    for name, params in ENUMERATION_PARAMETERS.items():
        assert _parameters(getattr(tensor_module, name)) == params, name


def test_trial_config_has_the_pinned_fields():
    fields = tuple(f.name for f in dataclasses.fields(hlcert.TrialConfig))
    assert fields == TRIAL_CONFIG_FIELDS


# a valid call of every public entry point, small enough to run in the suite
_T = generate("gaussian", 3, 2, ScalarField.REAL, 1)
VALID_CALLS = {
    "alternating_max": dict(T=_T, p=4.0, restarts=2, seed=1),
    "certify": dict(m=3, n=2, p=4.0, lambda0=1.0, config=TrialConfig(trials=1, restarts=2), seed=1),
    "check_contraction": dict(a=[1.0, 2.0], t=3.0),
    "check_khinchin": dict(a=[1.0, 2.0], q=1.5, samples=100, seed=1),
    "classical_exponents": dict(m=3, p=4.0),
    "crude_upper": dict(T=_T, p=4.0),
    "dual_norm_linear": dict(c=np.array([1.0, 2.0]), p=4.0),
    "evaluate": dict(T=_T, vectors=[np.ones(2)] * 3),
    "exact_linf_enum": dict(T=_T),
    "exponents": dict(m=3, p=4.0, lambda0=1.0),
    "generate": dict(kind="gaussian", m=3, n=2, field=ScalarField.REAL, seed=1),
    "khinchin_A": dict(q=1.5, field=ScalarField.REAL),
    "mixed_norm": dict(T=_T, fixed_index=1, s=2.0, alpha=3.0),
    "rademacher_moment": dict(a=[1.0, 2.0], q=3.0),
    "region": dict(m=3, lambda0=1.0),
    "search_extremal": dict(m=3, n=2, p=4.0, lambda0=1.0, budget=2, seed=1),
    "steinhaus_moment": dict(a=[1.0, 2.0], q=3.0, samples=100, seed=1),
    "sweep_lambda0": dict(
        m=3, p=4.0, n=2, grid=(1.0,), seed=1, config=TrialConfig(trials=1, restarts=2),
    ),
    "tensor_from_json": dict(text=hlcert.tensor_to_json(_T)),
    "tensor_to_json": dict(T=_T),
    "transfer": dict(tp=hlcert.TransferProblem([4.0] * 3, [math.inf] * 3, lambda0=1.0, s=2.0)),
    "verify_proof_chain": dict(S=_T, lambda0=1.5, s=2.5, mc_samples=100, seed=1),
}

FLOAT_PARAMETERS = [
    (name, param)
    for name in PUBLIC_PARAMETERS
    for param, spec in inspect.signature(getattr(hlcert, name)).parameters.items()
    if spec.annotation in ("float", float)
]


@pytest.mark.parametrize("name", sorted(VALID_CALLS))
def test_the_valid_calls_run(name):
    getattr(hlcert, name)(**VALID_CALLS[name])


@pytest.mark.parametrize("name, param", FLOAT_PARAMETERS)
def test_a_nan_float_parameter_raises_domain_error(name, param):
    # a NaN must never turn into a silent NaN result or a vacuous verdict
    with pytest.raises(DomainError):
        getattr(hlcert, name)(**{**VALID_CALLS[name], param: math.nan})


INT_PARAMETERS = [
    (name, param)
    for name in PUBLIC_PARAMETERS
    for param, spec in inspect.signature(getattr(hlcert, name)).parameters.items()
    if spec.annotation in ("int", int, "Optional[int]")
]


@pytest.mark.parametrize("name, param", INT_PARAMETERS)
def test_a_non_integer_int_parameter_raises_domain_error(name, param):
    # a count or an index that is not an integer is named at the public
    # edge, not met as a TypeError deep in the run
    with pytest.raises(DomainError):
        getattr(hlcert, name)(**{**VALID_CALLS[name], param: 1.5})


@pytest.mark.parametrize("field", ["trials", "restarts", "jobs"])
def test_a_non_integer_trial_config_count_raises_domain_error(field):
    with pytest.raises(DomainError, match=f"{field} must be an integer"):
        TrialConfig(**{field: 1.5})


@pytest.mark.parametrize("c", [np.array([]), np.zeros((3, 0)), np.array(2.0)])
def test_dual_norm_of_no_entries_raises_domain_error(c):
    with pytest.raises(DomainError):
        hlcert.dual_norm_linear(c, 4.0)


FIELD_ENTRY_POINTS = sorted(
    name for name in PUBLIC_PARAMETERS
    if "field" in inspect.signature(getattr(hlcert, name)).parameters
)


def test_the_field_entry_points_are_found():
    assert FIELD_ENTRY_POINTS == [
        "certify", "check_khinchin", "exponents", "generate", "khinchin_A",
        "search_extremal", "sweep_lambda0",
    ]


@pytest.mark.parametrize("name", FIELD_ENTRY_POINTS + ["FormTensor"])
def test_a_field_that_is_not_a_scalar_field_raises_domain_error(name):
    # every branch tests `field is ScalarField.COMPLEX`, so the text
    # 'complex' ran as the real field: the real constant, float64 tensors
    if name == "FormTensor":
        call = lambda: hlcert.FormTensor(m=2, n=2, field="complex", coeffs=np.ones(4))
    else:
        call = lambda: getattr(hlcert, name)(**{**VALID_CALLS[name], "field": "complex"})
    with pytest.raises(DomainError, match="field must be a ScalarField"):
        call()
