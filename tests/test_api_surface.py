"""The public surface, pinned: entry-point parameter names and TrialConfig fields.

Every setting a caller can pass is listed here, so adding, renaming or
removing one is a visible change to this file.  Values that no caller
needs to set are module constants (`hlcert.tensor.PATTERN_BUDGET`,
`DEFAULT_BLOCK`, `MAX_ENTRIES`, `hlcert.certify.RATIO_TOL`), which tests
patch instead.
"""

import dataclasses
import inspect

import hlcert
from hlcert import tensor as tensor_module

PUBLIC_PARAMETERS = {
    "alternating_max": ("T", "p", "restarts", "max_iters", "tol", "seed"),
    "certify": ("m", "n", "p", "lambda0", "field", "config", "seed"),
    "check_contraction": ("a", "t"),
    "check_khinchin": ("a", "q", "field", "samples", "seed"),
    "check_multiple_khinchin": ("T", "lambda0", "j1"),
    "classical_exponents": ("m", "p"),
    "crude_upper": ("T", "p"),
    "dual_norm_linear": ("c", "p"),
    "evaluate": ("T", "vectors"),
    "exact_linf_enum": ("T",),
    "exponents": ("m", "p", "lambda0", "field", "strict"),
    "gamma": ("x",),
    "generate": ("kind", "m", "n", "field", "seed"),
    "khinchin_A": ("q", "field"),
    "mixed_norm": ("T", "fixed_index", "s", "alpha"),
    "rademacher_moment": ("a", "q"),
    "region": ("m", "lambda0"),
    "search_extremal": ("m", "n", "p", "lambda0", "field", "budget", "seed"),
    "steinhaus_moment": ("a", "q", "samples", "seed"),
    "sweep_lambda0": ("m", "p", "n", "field", "grid", "trials", "seed", "config"),
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

TRIAL_CONFIG_FIELDS = ("trials", "kinds", "restarts", "max_iters", "tol", "jobs", "keep_trials")


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
