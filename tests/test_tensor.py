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
from hlcert import tensor as tensor_module
from hlcert.tensor import (
    _power_exceeds,
    contract_trailing_signs,
    iter_sign_blocks,
    mixed_norms,
    sign_slices,
)

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


def _scaled_power_sum(values, q):
    # (sum of (v / largest)^q, largest) for one row of values >= 0: the
    # powers as one array power, then summed one by one in their order
    top = values.max()
    total = 0.0
    for term in (values / (top + (top == 0.0))) ** q:
        total += term
    return total, top


def _reference_mixed_norms(coeffs, s, alpha):
    # the kernel's arithmetic for one tensor and one fixed axis at a time:
    # each row T[..., j, ...] (other indices in flat-index order) and then
    # the outer sum over j scaled by its own largest term; roots are array
    # powers, as in the kernel (numpy's scalar power can differ in the last
    # digit)
    m, n = coeffs.ndim, coeffs.shape[0]
    norms = []
    for axis in range(m):
        rows = np.moveaxis(np.abs(coeffs), axis, 0).reshape(n, -1)
        sums, tops = map(np.array, zip(*(_scaled_power_sum(row, s) for row in rows)))
        total, top = _scaled_power_sum(sums ** (1.0 / s) * tops, alpha)
        norms.append(float((np.array([total]) ** (1.0 / alpha) * top)[0]))
    return norms


def test_mixed_norms_share_one_power_bit_for_bit():
    # mixed_norms of one tensor is, bit for bit, the per-axis reference:
    # every row and the outer sum scaled by its own largest term (a single
    # nonzero entry leaves zero rows, whose norms are 0)
    rng = np.random.default_rng(17)
    for m, n in [(1, 5), (2, 4), (3, 3), (4, 2)]:
        for field, kind in itertools.product((REAL, COMPLEX), ("gaussian", "sparse_unit")):
            T = generate(kind, m, n, field, int(rng.integers(2**32)))
            for s, alpha in [(2.0, 4.0), (1.3, 2.7), (3.0, 1.0)]:
                expected = _reference_mixed_norms(T.coeffs, s, alpha)
                assert mixed_norms(T, s, alpha) == expected
                assert expected == [mixed_norm(T, i, s, alpha) for i in range(1, m + 1)]
    with pytest.raises(DomainError):
        mixed_norms(T, 0.5, 2.0)


def test_mixed_norms_of_a_modulus_past_the_largest_float_are_refused():
    # finite parts, |z| about 2.1e308: every mixed norm would be at least
    # |z|, so neither a tensor nor the kernel's magnitudes take it
    coeffs = np.zeros((2, 2, 2), dtype=complex)
    coeffs[0, 1, 1] = 1.5e308 + 1.5e308j
    coeffs[1, 0, 0] = 1.0
    with pytest.raises(DomainError, match="coefficients must all be finite"):
        FormTensor(m=3, n=2, field=ScalarField.COMPLEX, coeffs=coeffs)
    with pytest.raises(DomainError, match="coefficients must all be finite"):
        tensor_module._magnitudes(np.stack([coeffs.real, coeffs]))


def test_mixed_norm_of_one_entry_is_that_entry_at_any_exponent():
    # the kernel used to scale the tensor by the power of two nearest its
    # largest entry, so [2.5] reached 1.25 and its 1e4-th power overflowed,
    # and [1.5] reached 0.75 and every power underflowed to a norm of 0.0
    assert mixed_norm(_tensor([2.5]), 1, 1e4, 1e4) == 2.5
    assert mixed_norm(_tensor([2.5]), 1, 1e4, 1.5) == 2.5
    assert mixed_norm(_tensor([1.5]), 1, 1e4, 1e4) == 1.5
    assert mixed_norm(_tensor([1.5]), 1, 3000.0, 1.5) == 1.5


def _log_domain_mixed_norm(coeffs, axis, s, alpha):
    # each l_q sum as log(largest) + log(fsum(exp(q (log v - log largest)))) / q
    def log_norm(logs, q):
        top = max(logs)
        return top + math.log(math.fsum(math.exp(q * (v - top)) for v in logs)) / q

    n = coeffs.shape[0]
    rows = np.moveaxis(np.abs(coeffs), axis, 0).reshape(n, -1)
    return math.exp(log_norm([log_norm([math.log(v) for v in row], s) for row in rows], alpha))


def test_mixed_norms_at_large_exponents_match_a_log_domain_reference():
    # the largest entry is 2.71: its 3000th power overflowed on the old
    # kernel's scale, and mixed_norms raised where the norm is about 3.5
    g = generate("gaussian", 3, 3, REAL, 1)
    for axis, got in enumerate(mixed_norms(g, 3000.0, 1.5)):
        assert got == pytest.approx(_log_domain_mixed_norm(g.coeffs, axis, 3000.0, 1.5), rel=1e-12)


def test_mixed_norms_of_subnormal_entries_scale_with_the_tensor():
    # every entry of 2^-1030 T is subnormal: each row divides by its own
    # largest entry, so the norms are 2^-1030 times those of T (a zero-row
    # guard at the smallest normal float would divide by 2^-1022 and give
    # norms about a million times too small)
    T = _tensor(np.array([[3.0, 1.0], [2.0, 0.5]]))
    tiny = _tensor(T.coeffs * 2.0**-1030)
    for s, alpha in [(2.0, 3.0), (4.0, 1.5), (3000.0, 1.5)]:
        for axis, got in enumerate(mixed_norms(tiny, s, alpha)):
            expected = _log_domain_mixed_norm(T.coeffs, axis, s, alpha)
            assert got == pytest.approx(expected * 2.0**-1030, rel=1e-12, abs=0.0)
            assert mixed_norms(T, s, alpha)[axis] == pytest.approx(expected, rel=1e-12)


def test_mixed_norms_raise_only_a_true_overflow():
    # every norm of this tensor passes the largest float, so the call raises;
    # inf / inf in the outer scaling gives NaN, and neither warns
    T = _tensor(np.full((2, 2), 1.5e308))
    with pytest.raises(DomainError, match=r"mixed norms overflow at s=2.0, alpha=2.0"):
        mixed_norms(T, 2.0, 2.0)
    with pytest.raises(DomainError, match="mixed norms overflow"):
        mixed_norm(T, 1, 2.0, 2.0)
    # a third of that magnitude stays below it
    assert mixed_norms(_tensor(np.full((2, 2), 0.5e308)), 2.0, 2.0) == pytest.approx([1e308] * 2)


@pytest.mark.parametrize("m, n", [(3, 3), (2, 9), (4, 2), (3, 5)])
@pytest.mark.parametrize("K", [1, 7, 32])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_mixed_norms_stack_matches_the_per_axis_kernel_bit_for_bit(m, n, K, field):
    # rows of n^(m-1) >= 8 terms, where the order of the inner sums shows:
    # every tensor of the stack gets the per-axis reference's norms
    rng = np.random.default_rng(41)
    shape = (K,) + (n,) * m
    for scale in (2.0**-900, 1.0, 2.0**900):
        stack = rng.standard_normal(shape)
        if field is COMPLEX:
            stack = stack + 1j * rng.standard_normal(shape)
        stack = stack * scale
        for s, alpha in [(2.0, 4.0), (4.0 / 3.0, 1.6), (1.0, 2.0), (3.0, 1.0)]:
            mags, _ = tensor_module._magnitudes(stack)
            got = tensor_module._mixed_norms_of_magnitudes(mags, stack.shape, s, alpha)
            expected = [_reference_mixed_norms(coeffs, s, alpha) for coeffs in stack]
            assert got.tolist() == expected


@pytest.mark.parametrize("m, n", [(2, 9), (2, 12), (3, 5), (4, 3)])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_mixed_norms_of_a_stack_are_each_tensors_alone(m, n, field):
    # the same tensors in stacks of 1, 2, 5 and 32: a tensor's norms do not
    # depend on what else the stack holds
    rng = np.random.default_rng(43)
    shape = (32,) + (n,) * m
    for scale in (2.0**-900, 2.0**900):
        stack = rng.standard_normal(shape)
        if field is COMPLEX:
            stack = stack + 1j * rng.standard_normal(shape)
        stack = stack * scale
        for s, alpha in [(2.0, 4.0), (4.0 / 3.0, 1.6), (3000.0, 1.5)]:
            def norms(part):
                mags, _ = tensor_module._magnitudes(part)
                return tensor_module._mixed_norms_of_magnitudes(mags, part.shape, s, alpha)

            alone = np.concatenate([norms(stack[k : k + 1]) for k in range(32)])
            for K in (2, 5, 32):
                stacked = np.concatenate([norms(stack[k : k + K]) for k in range(0, 32, K)])
                assert stacked.tobytes() == alone.tobytes()


@pytest.mark.parametrize(
    "x, unit",
    [
        (0.0, 1.0),
        (5e-324, 5e-324),                # the smallest subnormal
        (1.5 * 2.0**1023, 2.0**1023),    # nearest 2^1024: capped
        # mantissas just below and just above sqrt(1/2)
        (math.ldexp(np.nextafter(math.sqrt(0.5), 0.0), 7), 64.0),
        (math.ldexp(np.nextafter(math.sqrt(0.5), 1.0), 7), 128.0),
    ],
)
def test_nearest_power_of_two_of_a_0d_value_matches_a_one_element_array(x, unit):
    nearest = tensor_module._nearest_powers_of_two
    alone = nearest(np.float64(x))
    assert np.ndim(alone) == 0
    assert float(alone) == nearest(np.array([x]))[0] == unit


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


@pytest.mark.parametrize("seed", [None, -1, 1.5, 2**32, 2**40, "1"])
def test_generate_refuses_a_bad_seed(seed):
    # None would draw OS entropy and 2**40 would hash like another seed's
    # stream: the one seed rule refuses both, as it does at every entry point
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        generate("gaussian", 2, 2, REAL, seed)


def test_generate_streams_are_default_rng_of_the_seed():
    # an integer, a SeedSequence and a Generator draw the stream they did
    # before the seed rule was applied
    shape = (3, 3)
    expected = np.random.default_rng(7).standard_normal(shape)
    for seed in (7, np.uint32(7), np.random.SeedSequence(7), np.random.default_rng(7)):
        assert np.array_equal(generate("gaussian", 2, 3, REAL, seed).coeffs, expected)
    ss = np.random.SeedSequence([7, 3])
    signs = np.random.default_rng(ss).integers(0, 2, size=shape) * 2.0 - 1.0
    assert np.array_equal(generate("signs", 2, 3, REAL, ss).coeffs, signs)


def test_generate_steinhaus_unimodular():
    T = generate("steinhaus", 2, 3, COMPLEX, 5)
    assert np.allclose(np.abs(T.coeffs), 1.0, atol=1e-12)
    with pytest.raises(DomainError):
        generate("steinhaus", 2, 3, REAL, 5)


def test_generate_budget_and_kind_errors(monkeypatch):
    monkeypatch.setattr(tensor_module, "MAX_ENTRIES", 8)
    with pytest.raises(BudgetError):
        generate("gaussian", 2, 3, REAL, 1)
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


@pytest.mark.parametrize("document, message", [
    ({"m": 2.7, "n": 2, "field": "real", "coeffs": [1, 0, 0, 1]}, "m and n must be JSON integers"),
    ({"m": 2, "n": "2", "field": "real", "coeffs": [1, 0, 0, 1]}, "m and n must be JSON integers"),
    ({"m": True, "n": 4, "field": "real", "coeffs": [1, 0, 0, 1]}, "m and n must be JSON integers"),
    ({"m": 2, "n": 2, "field": "real", "coeffs": [[1, "0.5"], [0, 1]]},
     "real coeffs must be a flat list of numbers"),
    ({"m": 2, "n": 2, "field": "real", "coeffs": [1, True, 0, 1]},
     "real coeffs must be a flat list of numbers"),
    ({"m": 1, "n": 2, "field": "complex", "coeffs": [["1", "0.5"], [True, 1]]},
     "complex coeffs must be a flat list of \\[re, im\\] pairs of numbers"),
    # a complex file labelled real: its 4 pairs are not a real 2x2x2 tensor
    ({"m": 3, "n": 2, "field": "real", "coeffs": [[1, 0], [0, 1], [1, 1], [0, 0]]},
     "real coeffs must be a flat list of numbers"),
], ids=["m-float", "n-string", "m-bool", "real-nested-string", "real-bool", "complex-string-bool",
        "complex-labelled-real"])
def test_tensor_json_takes_only_json_numbers(document, message):
    # each of these loaded: m = 2.7 as 2, numeric strings and booleans as
    # floats, nested lists as the real field's coefficient tensor
    with pytest.raises(DomainError, match=message):
        tensor_from_json(json.dumps(document))


def test_a_huge_m_is_a_domain_error():
    # n^m at m = 10^5 has 47713 digits: formatting it in the message raised
    # ValueError past Python's 4300-digit limit for int to str
    text = json.dumps({"m": 10**5, "n": 3, "field": "real", "coeffs": [1.0]})
    with pytest.raises(DomainError, match=r"coefficient count 1 != n\^m = 3\^100000"):
        tensor_from_json(text)


def test_a_huge_m_is_refused_by_the_entry_budget():
    # generating n^m = 3^(10^6) coefficients raised Python's ValueError for
    # printing an int of more than 4300 digits
    with pytest.raises(BudgetError, match=r"n\^m = 3\^1000000 exceeds the entry budget"):
        generate("gaussian", 10**6, 3, REAL, 1)


def test_power_exceeds_is_the_exact_comparison():
    for n, m in itertools.product([1, 2, 3, 7, 8, 31, 32, 1000, 2**20 + 1], range(1, 30)):
        for limit in [0, 1, 8, 10**7, n**m - 1, n**m, 2**64]:
            assert _power_exceeds(n, m, limit) == (n**m > limit), (n, m, limit)


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


def _slices_by_patterns(coeffs, reduced=True):
    # reference: one contraction per sign pattern, in index order; with
    # `reduced`, the patterns whose first sign in each slot is +1
    r = coeffs.ndim - 1
    n = coeffs.shape[1]
    cols = n - 1 if reduced else n
    out = []
    for signs in iter_sign_blocks(cols * r):
        full = np.ones((len(signs), r, n))
        full[:, :, n - cols :] = signs.reshape(len(signs), r, cols)
        out.append(contract_trailing_signs(coeffs, full))
    return np.concatenate(out)


@pytest.mark.parametrize("m, n", [(2, 1), (2, 3), (2, 6), (3, 2), (3, 4), (4, 2), (4, 3)])
@pytest.mark.parametrize("block", [1, 5, 16, 4096])
@pytest.mark.parametrize("free", ["n", "1"])
def test_sign_slices_match_per_pattern_contraction(m, n, block, free, monkeypatch):
    monkeypatch.setattr(tensor_module, "DEFAULT_BLOCK", block)
    rng = np.random.default_rng(1000 * m + n)
    f = n if free == "n" else 1
    coeffs = rng.standard_normal((f,) + (n,) * (m - 1))
    blocks = list(sign_slices(coeffs))
    assert all(len(b) <= block for b in blocks)
    got = np.concatenate(blocks)
    ref = _slices_by_patterns(coeffs)
    assert got.shape == ref.shape == (2 ** ((n - 1) * (m - 1)), f)
    scale = np.abs(ref).max()
    assert np.abs(got - ref).max() <= 1e-12 * scale


@pytest.mark.parametrize("m, n", [(2, 1), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_flipping_a_slot_negates_every_slice_bit_for_bit(m, n):
    # the symmetry behind the reduced enumeration: pattern index i and i with
    # every bit of slot k flipped give V and -V, so |V| is the same
    coeffs = np.random.default_rng(31 * m + n).standard_normal((n,) * m)
    full = _slices_by_patterns(coeffs, reduced=False)
    index = np.arange(len(full))
    for k in range(m - 1):
        flipped = index ^ (((1 << n) - 1) << (n * k))
        assert np.array_equal(full[flipped], -full)


def test_sign_slices_free_axis_only():
    coeffs = np.array([1.0, -2.0, 3.0])
    (only,) = list(sign_slices(coeffs))
    assert only.shape == (1, 3)
    assert np.array_equal(only[0], coeffs)


def test_sign_slices_budget_raises_before_work(monkeypatch):
    # 2^(30*2) patterns: the check must fire at the call, before any block
    with pytest.raises(BudgetError):
        sign_slices(np.zeros((30, 30, 30)))
    # (3, 3, 3) enumerates 2^((3-1)*2) = 2^4 patterns
    monkeypatch.setattr(tensor_module, "PATTERN_BUDGET", 2**4 - 1)
    with pytest.raises(BudgetError):
        sign_slices(np.zeros((3, 3, 3)))


def test_iter_sign_blocks_refuses_a_negative_width_or_too_many_patterns():
    with pytest.raises(DomainError, match="nbits must be nonnegative"):
        next(iter_sign_blocks(-1))
    bits = tensor_module.PATTERN_BUDGET.bit_length()   # 2^bits > PATTERN_BUDGET
    with pytest.raises(BudgetError, match=f"2\\^{bits} patterns exceed the budget"):
        next(iter_sign_blocks(bits))

