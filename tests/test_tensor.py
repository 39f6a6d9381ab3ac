"""Form tensors: evaluation, mixed norms, generation, JSON interchange."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcert import (
    BudgetError,
    DomainError,
    FormTensor,
    ScalarField,
    evaluate,
    generate,
    mixed_norm,
    tensor_from_json,
    tensor_to_json,
)
from hlcert.tensor import contract_trailing_signs, iter_sign_blocks, mixed_norms, sign_slices

REAL = ScalarField.REAL
COMPLEX = ScalarField.COMPLEX


def _tensor(coeffs, field=REAL):
    arr = np.asarray(coeffs)
    return FormTensor(m=arr.ndim, n=arr.shape[0], field=field, coeffs=arr)


def test_evaluate_identity_off_diagonal():
    T = _tensor(np.eye(2))
    assert evaluate(T, [np.array([1.0, 0.0]), np.array([0.0, 1.0])]) == 0.0


def test_evaluate_all_ones_sum():
    T = _tensor(np.ones((2, 2)))
    assert evaluate(T, [np.array([1.0, 1.0])] * 2) == 4.0


def test_evaluate_basis_recovers_coefficients():
    rng = np.random.default_rng(3)
    T = generate("gaussian", 3, 2, REAL, rng.integers(2**32))
    for J in itertools.product(range(2), repeat=3):
        basis = [np.eye(2)[j] for j in J]
        assert evaluate(T, basis) == pytest.approx(T.coeffs[J], rel=1e-14)


def test_evaluate_multilinearity():
    rng = np.random.default_rng(5)
    T = generate("gaussian", 2, 4, REAL, 1)
    x, y, z = rng.standard_normal((3, 4))
    a, b = 2.5, -1.25
    left = evaluate(T, [a * x + b * y, z])
    right = a * evaluate(T, [x, z]) + b * evaluate(T, [y, z])
    assert left == pytest.approx(right, rel=1e-12)


def test_evaluate_dimension_mismatch():
    T = _tensor(np.ones((2, 2)))
    with pytest.raises(DomainError):
        evaluate(T, [np.ones(3), np.ones(2)])
    with pytest.raises(DomainError):
        evaluate(T, [np.ones(2)])


def test_mixed_norm_all_ones_oracle():
    # independent oracle: direct summation by explicit loops
    T = _tensor(np.ones((2, 2)))
    s, alpha = 2.0, 4.0
    outer = 0.0
    for j1 in range(2):
        inner = sum(abs(T.coeffs[j1, j2]) ** s for j2 in range(2)) ** (1.0 / s)
        outer += inner**alpha
    oracle = outer ** (1.0 / alpha)
    assert oracle == pytest.approx(8.0**0.25, rel=1e-14)
    got = mixed_norm(T, 1, s, alpha)
    assert got == pytest.approx(oracle, rel=1e-13)


def test_mixed_norm_collapse_to_flat_norm():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        T = generate("gaussian", m, n, REAL, int(rng.integers(2**32)))
        s = float(rng.uniform(1.0, 4.0))
        flat = float((np.abs(T.coeffs) ** s).sum() ** (1.0 / s))
        for i in range(1, m + 1):
            got = mixed_norm(T, i, s, s)
            assert got == pytest.approx(flat, rel=1e-12)


def test_mixed_norm_single_nonzero():
    coeffs = np.zeros((3, 3, 3))
    coeffs[1, 2, 0] = -2.5
    T = _tensor(coeffs)
    for i in (1, 2, 3):
        for s, alpha in [(1.0, 1.0), (2.0, 4.0), (3.0, 1.5)]:
            assert mixed_norm(T, i, s, alpha) == pytest.approx(2.5, rel=1e-14)


@given(
    c=st.floats(min_value=-1e6, max_value=1e6),
    shape=st.sampled_from([(1, 5), (2, 3), (3, 2), (3, 3), (4, 2)]),
    complex_field=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_mixed_norm_homogeneous(c, shape, complex_field, seed):
    # mixed_norms(cT) = |c| mixed_norms(T); a subnormal c*T keeps too few
    # bits for a relative comparison, hence the tiny absolute tolerance
    m, n = shape
    field = COMPLEX if complex_field else REAL
    T = generate("gaussian", m, n, field, seed)
    cT = FormTensor(m=m, n=n, field=field, coeffs=c * T.coeffs)
    for got, base in zip(mixed_norms(cT, 2.0, 3.0), mixed_norms(T, 2.0, 3.0)):
        assert got == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-300)


@given(
    perm=st.sampled_from([2, 3, 4]).flatmap(lambda m: st.permutations(range(m))),
    n=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
    s=st.floats(min_value=1.0, max_value=4.0),
    alpha=st.floats(min_value=1.0, max_value=6.0),
)
@settings(max_examples=100, deadline=None)
def test_mixed_norm_permutation_consistency(perm, n, seed, s, alpha):
    # permuting the slots permutes the mixed norms: fixed index i of the
    # permuted tensor is slot perm[i] of the original
    m = len(perm)
    T = generate("gaussian", m, n, REAL, seed)
    P = FormTensor(m=m, n=n, field=REAL, coeffs=np.transpose(T.coeffs, perm))
    base = mixed_norms(T, s, alpha)
    for i, got in enumerate(mixed_norms(P, s, alpha)):
        assert got == pytest.approx(base[perm[i]], rel=1e-13)


def test_mixed_norms_share_one_power_bit_for_bit():
    # one |coeff|^s for all m fixed indices gives, bit for bit, what raising
    # each index's own (n, n^(m-1)) layout to the s-th power gives, both on
    # the tensor divided by the power of two nearest its largest magnitude
    rng = np.random.default_rng(17)
    for m, n in [(1, 5), (2, 4), (3, 3), (4, 2)]:
        for field in (REAL, ScalarField.COMPLEX):
            T = generate("gaussian", m, n, field, int(rng.integers(2**32)))
            mantissa, exponent = math.frexp(float(np.abs(T.coeffs).max()))
            unit = 2.0 ** (exponent - (mantissa < math.sqrt(0.5)))
            for s, alpha in [(2.0, 4.0), (1.3, 2.7), (3.0, 1.0)]:
                expected = []
                for i in range(m):
                    flat = np.moveaxis(T.coeffs, i, 0).reshape(n, -1)
                    per_row = ((np.abs(flat) / unit) ** s).sum(axis=1) ** (1.0 / s)
                    # the outer root of a 1-element array: numpy's array power,
                    # which can differ in the last digit from a scalar's
                    total = (per_row**alpha).sum(keepdims=True)
                    expected.append(unit * float((total ** (1.0 / alpha))[0]))
                assert mixed_norms(T, s, alpha) == expected
                assert expected == [mixed_norm(T, i, s, alpha) for i in range(1, m + 1)]
    with pytest.raises(DomainError):
        mixed_norms(T, 0.5, 2.0)


def test_mixed_norm_huge_entries_finite_without_warning():
    # |coeff|^s of 1e160 overflows unless the tensor is scaled first
    T = _tensor(np.array([[1e160, -1e160], [-1e160, 1e160]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mixed_norm(T, 1, 2.0, 4.0)
    assert math.isfinite(got)
    assert got == pytest.approx(1e160 * 2.0 ** 0.5 * 2.0 ** 0.25, rel=1e-14)


@pytest.mark.parametrize("k", [-700, 0, 660])
def test_mixed_norm_scales_by_powers_of_two_bit_for_bit(k):
    rng = np.random.default_rng(29)
    for m, n in [(1, 4), (2, 3), (3, 3), (4, 2)]:
        for field in (REAL, COMPLEX):
            T = generate("gaussian", m, n, field, int(rng.integers(2**32)))
            scaled = FormTensor(m=m, n=n, field=field, coeffs=T.coeffs * 2.0**k)
            for s, alpha in [(2.0, 4.0), (1.3, 2.7), (3.0, 1.0)]:
                for i in range(1, m + 1):
                    assert mixed_norm(scaled, i, s, alpha) == math.ldexp(
                        mixed_norm(T, i, s, alpha), k
                    )


def test_mixed_norm_spec_validation():
    T = _tensor(np.ones((2, 2)))
    with pytest.raises(DomainError):
        mixed_norm(T, 1, 0.5, 2.0)
    with pytest.raises(DomainError):
        mixed_norm(T, 1, 2.0, math.inf)
    with pytest.raises(DomainError):
        mixed_norm(T, 3, 2.0, 2.0)


def test_generate_sparse_unit():
    T = generate("sparse_unit", 2, 3, REAL, 17)
    flat = np.asarray(T.coeffs).ravel()
    assert np.count_nonzero(flat) == 1
    assert flat.sum() == 1.0


def test_generate_signs_support():
    T = generate("signs", 2, 2, REAL, 23)
    assert set(np.asarray(T.coeffs).ravel()) <= {-1.0, 1.0}


def test_generate_deterministic_and_seed_sensitive():
    a = generate("gaussian", 2, 3, REAL, 99)
    b = generate("gaussian", 2, 3, REAL, 99)
    c = generate("gaussian", 2, 3, REAL, 100)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_generate_steinhaus_unimodular():
    T = generate("steinhaus", 2, 3, COMPLEX, 5)
    assert np.allclose(np.abs(T.coeffs), 1.0, atol=1e-12)
    with pytest.raises(DomainError):
        generate("steinhaus", 2, 3, REAL, 5)


def test_generate_budget_and_kind_errors():
    with pytest.raises(BudgetError):
        generate("gaussian", 2, 3, REAL, 1, max_entries=8)
    with pytest.raises(DomainError):
        generate("uniform", 2, 3, REAL, 1)


def test_json_round_trip_real():
    T = generate("gaussian", 3, 2, REAL, 7)
    back = tensor_from_json(tensor_to_json(T))
    assert back.m == T.m and back.n == T.n and back.field is T.field
    assert np.array_equal(back.coeffs, T.coeffs)


def test_json_round_trip_complex():
    T = generate("steinhaus", 2, 3, COMPLEX, 7)
    text = tensor_to_json(T)
    payload = json.loads(text)
    assert payload["field"] == "complex"
    assert all(len(pair) == 2 for pair in payload["coeffs"])
    back = tensor_from_json(text)
    assert np.array_equal(back.coeffs, T.coeffs)


def test_form_tensor_validation():
    with pytest.raises(DomainError):
        FormTensor(m=2, n=2, field=REAL, coeffs=np.ones(3))
    with pytest.raises(DomainError):
        FormTensor(m=2, n=2, field=REAL, coeffs=np.array([1.0, np.inf, 0.0, 0.0]))
    with pytest.raises(DomainError):
        FormTensor(m=0, n=2, field=REAL, coeffs=np.ones(1))


def test_form_tensor_immutable():
    T = generate("gaussian", 2, 2, REAL, 1)
    with pytest.raises(ValueError):
        np.asarray(T.coeffs)[0, 0] = 5.0


def _slices_by_patterns(coeffs):
    # reference: one contraction per enumerated sign pattern, in index order
    r = coeffs.ndim - 1
    n = coeffs.shape[1]
    return np.concatenate([
        contract_trailing_signs(coeffs, signs.reshape(len(signs), r, n))
        for signs in iter_sign_blocks(n * r)
    ])


@pytest.mark.parametrize("m, n", [(2, 1), (2, 3), (2, 6), (3, 2), (3, 4), (4, 2), (4, 3)])
@pytest.mark.parametrize("block", [1, 5, 16, 4096])
@pytest.mark.parametrize("free", ["n", "1"])
def test_sign_slices_match_per_pattern_contraction(m, n, block, free):
    rng = np.random.default_rng(1000 * m + n)
    f = n if free == "n" else 1
    coeffs = rng.standard_normal((f,) + (n,) * (m - 1))
    blocks = list(sign_slices(coeffs, block=block))
    assert all(len(b) <= block for b in blocks)
    got = np.concatenate(blocks)
    ref = _slices_by_patterns(coeffs)
    assert got.shape == ref.shape == (2 ** (n * (m - 1)), f)
    scale = np.abs(ref).max()
    assert np.abs(got - ref).max() <= 1e-12 * scale


def test_sign_slices_free_axis_only():
    coeffs = np.array([1.0, -2.0, 3.0])
    (only,) = list(sign_slices(coeffs))
    assert only.shape == (1, 3)
    assert np.array_equal(only[0], coeffs)


def test_sign_slices_budget_raises_before_work():
    # 2^(30*2) patterns: the check must fire at the call, before any block
    with pytest.raises(BudgetError):
        sign_slices(np.zeros((30, 30, 30)))
    with pytest.raises(BudgetError):
        sign_slices(np.zeros((3, 3, 3)), pattern_budget=2**6 - 1)
    with pytest.raises(DomainError):
        sign_slices(np.zeros((3, 3)), block=0)
