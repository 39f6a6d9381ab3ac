"""The crossover root and the Khinchin constants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcert import (
    Branch,
    DomainError,
    ScalarField,
    exponents,
    khinchin_A,
    solve_q0,
)

SQRT_PI = math.sqrt(math.pi)


def test_q0_location_and_defining_equation():
    q0 = solve_q0()
    assert 1.84 < q0 < 1.85
    assert abs(math.gamma((q0 + 1.0) / 2.0) - SQRT_PI / 2.0) <= 1e-12


def test_q0_deterministic():
    assert solve_q0() == solve_q0()


def test_khinchin_known_values():
    assert khinchin_A(1.0, ScalarField.REAL).value == pytest.approx(2.0**-0.5, abs=1e-12)
    assert khinchin_A(2.0, ScalarField.REAL).value == pytest.approx(1.0, abs=1e-12)
    assert khinchin_A(1.0, ScalarField.COMPLEX).value == pytest.approx(
        math.gamma(1.5), abs=1e-12
    )
    assert khinchin_A(2.0, ScalarField.COMPLEX).value == pytest.approx(1.0, abs=1e-12)


def test_khinchin_real_q2_derived_oracle():
    # direct gamma evaluation: sqrt(2) * (Gamma(3/2)/sqrt(pi))^(1/2) = 1
    oracle = math.sqrt(2.0) * (math.gamma(1.5) / SQRT_PI) ** 0.5
    assert khinchin_A(2.0, ScalarField.REAL).value == pytest.approx(oracle, abs=1e-13)


def test_khinchin_branch_tags():
    q0 = solve_q0()
    assert khinchin_A(1.2, ScalarField.REAL).branch is Branch.REAL_LOW
    assert khinchin_A(1.9, ScalarField.REAL).branch is Branch.REAL_HIGH
    assert khinchin_A(q0, ScalarField.REAL).branch is Branch.REAL_LOW
    assert khinchin_A(1.5, ScalarField.COMPLEX).branch is Branch.COMPLEX


def test_khinchin_branch_continuity_at_q0():
    q0 = solve_q0()
    low = 2.0 ** (0.5 - 1.0 / q0)
    high = math.sqrt(2.0) * (math.gamma((1.0 + q0) / 2.0) / SQRT_PI) ** (1.0 / q0)
    assert abs(low - high) <= 1e-9


def test_khinchin_domain_errors():
    for q in (0.5, 0.99, 2.01, 3.0):
        with pytest.raises(DomainError):
            khinchin_A(q, ScalarField.REAL)
        with pytest.raises(DomainError):
            khinchin_A(q, ScalarField.COMPLEX)


@pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
def test_khinchin_monotone_on_grid(field):
    values = [khinchin_A(1.0 + i / 100.0, field).value for i in range(101)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12
    assert 0.0 < values[0] <= 1.0
    assert values[-1] == pytest.approx(1.0, abs=1e-12)


def test_complex_dominates_real_on_grid():
    # the complex (Steinhaus) constants are the better ones
    for i in range(101):
        q = 1.0 + i / 100.0
        assert (
            khinchin_A(q, ScalarField.COMPLEX).value
            >= khinchin_A(q, ScalarField.REAL).value - 1e-12
        )


@given(
    q1=st.floats(min_value=1.0, max_value=2.0, allow_nan=False),
    q2=st.floats(min_value=1.0, max_value=2.0, allow_nan=False),
    field=st.sampled_from([ScalarField.REAL, ScalarField.COMPLEX]),
)
@settings(max_examples=200, deadline=None)
def test_khinchin_monotone_property(q1, q2, field):
    lo, hi = sorted((q1, q2))
    a_lo = khinchin_A(lo, field).value
    a_hi = khinchin_A(hi, field).value
    assert a_hi >= a_lo - 1e-12
    assert 0.0 < a_lo <= 1.0 + 1e-12


def test_real_khinchin_constant_at_two_is_exactly_one():
    # A_2 = 1 (Gamma(3/2) = sqrt(pi)/2), so the lambda0 = 2 constant is at
    # least 1 and the single-coefficient witness of ratio 1 stays below it
    assert khinchin_A(2.0, ScalarField.REAL).value == 1.0
    for m in (2, 3, 4):
        assert exponents(m, math.inf, 2.0, ScalarField.REAL).constant >= 1.0


@pytest.mark.parametrize("text", ["quaternion", "", 1, None])
def test_an_unknown_scalar_field_raises_domain_error(text):
    with pytest.raises(DomainError, match="unknown scalar field"):
        ScalarField.parse(text)
