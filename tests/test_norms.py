"""Operator-norm sandwiches: dual closed forms, ascent, exact enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcert import (
    BudgetError,
    DomainError,
    FormTensor,
    NormMethod,
    ScalarField,
    alternating_max,
    crude_upper,
    dual_norm_linear,
    evaluate,
    exact_linf_enum,
    generate,
    verify_proof_chain,
)
from hlcert.norms import _alternating_max_batch, _ascend, _random_starts

REAL = ScalarField.REAL
COMPLEX = ScalarField.COMPLEX


def _tensor(coeffs, field=REAL):
    arr = np.asarray(coeffs)
    return FormTensor(m=arr.ndim, n=arr.shape[0], field=field, coeffs=arr)


def _brute_force_linf(T):
    # independent oracle: enumerate sign vectors in EVERY slot
    best = 0.0
    for signs in itertools.product([-1.0, 1.0], repeat=T.m * T.n):
        vecs = [np.array(signs[k * T.n : (k + 1) * T.n]) for k in range(T.m)]
        best = max(best, abs(evaluate(T, vecs)))
    return best


def test_dual_norm_self_dual_case():
    value, x = dual_norm_linear(np.array([1.0, -2.0]), 2.0)
    assert value == pytest.approx(math.sqrt(5.0), rel=1e-14)
    assert np.allclose(x, np.array([1.0, -2.0]) / math.sqrt(5.0), atol=1e-14)


def test_dual_norm_linf_case():
    value, x = dual_norm_linear(np.array([1.0, -2.0]), math.inf)
    assert value == 3.0
    assert np.array_equal(x, np.array([1.0, -1.0]))


def test_dual_norm_zero_vector():
    value, x = dual_norm_linear(np.zeros(3), 2.0)
    assert value == 0.0
    assert np.linalg.norm(x) == 1.0


def test_dual_norm_p1():
    value, x = dual_norm_linear(np.array([1.0, -3.0, 2.0]), 1.0)
    assert value == 3.0
    assert np.abs(x).sum() == 1.0
    assert float(np.array([1.0, -3.0, 2.0]) @ x) == pytest.approx(3.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0, math.inf])
def test_dual_norm_maximizer_properties(p):
    rng = np.random.default_rng(31)
    for complex_case in (False, True):
        c = rng.standard_normal(5)
        if complex_case:
            c = c + 1j * rng.standard_normal(5)
        value, x = dual_norm_linear(c, p)
        pnorm = np.abs(x).max() if math.isinf(p) else (np.abs(x) ** p).sum() ** (1.0 / p)
        assert pnorm == pytest.approx(1.0, abs=1e-12)
        attained = c @ x
        assert abs(attained) == pytest.approx(value, rel=1e-12)
        # holder: no unit vector can beat the dual norm
        assert abs(attained) <= value + 1e-12


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, math.inf])
@pytest.mark.parametrize("complex_case", [False, True])
def test_dual_norm_stack_matches_rows(p, complex_case):
    rng = np.random.default_rng(37)
    for n in (1, 3, 12):
        c = rng.standard_normal((7, n))
        if complex_case:
            c = c + 1j * rng.standard_normal((7, n))
        c[[1, 4]] = 0.0  # zero rows mixed with nonzero ones
        values, x = dual_norm_linear(c, p)
        assert values.shape == (7,) and x.shape == c.shape
        for r in range(7):
            value_r, x_r = dual_norm_linear(c[r], p)
            assert isinstance(value_r, float)
            assert values[r] == value_r
            assert np.array_equal(x[r], x_r)
        for r in (1, 4):
            assert values[r] == 0.0
            assert np.array_equal(x[r], np.eye(1, n)[0])


def _dual_norm_reference(row, p):
    # ||row||_{p'} in Python floats, scaled by the largest modulus, summed by fsum
    pp = p / (p - 1.0)
    mags = [abs(complex(v)) for v in row]
    top = max(mags)
    return top * math.fsum((v / top) ** pp for v in mags) ** (1.0 / pp)


@pytest.mark.parametrize("p", [1.0 + 1e-9, 1.001, 1.5, 4.0, 64.0, 1e6])
@pytest.mark.parametrize("complex_case", [False, True])
def test_dual_norm_one_power_step(p, complex_case):
    # the finite-p step takes one power: |x|^p = r^(p'-1) * r = r^p' gives
    # both the value and the witness's norm; checked per row against
    # <c, x>, ||x||_p = 1 and an fsum reference, over 600 orders of magnitude
    rng = np.random.default_rng(43)
    base = [rng.standard_normal(4) for _ in range(3)]
    base += [np.array([3.0, -3.0, 1.0, 0.0]), np.array([2.0, 2.0, 2.0, 2.0])]  # tied maxima
    if complex_case:
        base = [b + 1j * rng.standard_normal(4) for b in base[:3]]
        base += [np.array([3.0, -3.0j, 2.0 + 2.0j, 0.0]), np.array([1.0, 1j, -1.0, -1j])]
    rows = [scale * b for scale in (1e-300, 1.0, 1e300) for b in base]
    rows.insert(4, np.zeros(4, dtype=rows[0].dtype))  # a zero row among the others
    c = np.array(rows)
    values, x = dual_norm_linear(c, p)
    for r, row in enumerate(c):
        if not row.any():
            assert values[r] == 0.0 and np.array_equal(x[r], np.eye(1, 4)[0])
            continue
        attained = complex(np.sum(row * x[r]))
        assert abs(attained - values[r]) <= 1e-13 * values[r]
        pnorm = math.fsum(abs(complex(v)) ** p for v in x[r]) ** (1.0 / p)
        assert abs(pnorm - 1.0) <= 1e-13
        reference = _dual_norm_reference(row, p)
        assert abs(values[r] - reference) <= 1e-14 * reference


def test_subnormal_complex_entries_give_finite_bounds():
    # conj(c) / |c| as complex / real multiplies by 1/|c|, which overflows
    # for subnormal |c| and would turn the whole ascent into NaN
    coeffs = np.ones((2, 2, 2), dtype=complex)
    coeffs[1] = 1e-310 * (1 + 1j)
    T = _tensor(coeffs, COMPLEX)
    for p in (4.0, math.inf):
        est = alternating_max(T, p, restarts=4, seed=0)
        assert math.isfinite(est.lower) and 0.0 < est.lower <= est.upper
    D = _tensor(np.array([[1.0, 0.0], [0.0, 1e-310j]]), COMPLEX)
    est = alternating_max(D, 4.0, restarts=4, seed=0)
    assert math.isfinite(est.lower) and est.lower <= est.upper
    chain = verify_proof_chain(T, 1.5, 2.0, mc_samples=2_000, seed=3)
    assert chain.passed and math.isfinite(chain.norm_lower)
    assert chain.norm_lower <= chain.norm_upper


def test_alternating_sparse_unit_exact():
    for p in (1.5, 2.0, math.inf):
        T = generate("sparse_unit", 2, 3, REAL, 11)
        est = alternating_max(T, p, restarts=4, seed=0)
        assert est.lower == pytest.approx(1.0, abs=1e-12)
        assert est.upper == pytest.approx(1.0, abs=1e-12)


def test_alternating_identity_linf_matches_enum():
    T = _tensor(np.eye(2))
    oracle = exact_linf_enum(T)
    assert oracle.lower == 2.0
    est = alternating_max(T, math.inf, restarts=16, seed=1)
    assert est.lower == pytest.approx(2.0, abs=1e-10)


def test_alternating_rank_one_p2():
    # rank-one tensor: norm factors into dual norms of the two vectors
    T = _tensor(np.ones((2, 2)))
    est = alternating_max(T, 2.0, restarts=8, seed=2)
    assert est.lower == pytest.approx(2.0, rel=1e-10)
    assert est.upper == 4.0  # crude coefficient mass, loose here


def test_rank_one_closed_form_oracle():
    rng = np.random.default_rng(17)
    for p in (2.0, 3.0):
        pp = p / (p - 1.0)
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        T = _tensor(np.outer(u, v))
        oracle = (np.abs(u) ** pp).sum() ** (1 / pp) * (np.abs(v) ** pp).sum() ** (1 / pp)
        est = alternating_max(T, p, restarts=8, seed=3)
        assert est.lower == pytest.approx(oracle, rel=1e-9)


def test_witness_validity():
    rng = np.random.default_rng(41)
    for field, p in itertools.product((REAL, COMPLEX), (1.5, 2.0, 3.0, 4.0, math.inf)):
        for _ in range(5):
            T = generate("gaussian", 3, 3, field, int(rng.integers(2**32)))
            est = alternating_max(T, p, restarts=4, seed=int(rng.integers(2**32)))
            assert len(est.witness) == 3
            for x in est.witness:
                pnorm = (
                    np.abs(x).max() if math.isinf(p) else (np.abs(x) ** p).sum() ** (1.0 / p)
                )
                assert pnorm == pytest.approx(1.0, abs=1e-12)
            assert abs(evaluate(T, list(est.witness))) == pytest.approx(
                est.lower, abs=1e-10 * max(1.0, est.lower)
            )


def test_witness_validity_exact_enum():
    T = generate("gaussian", 2, 3, REAL, 19)
    est = exact_linf_enum(T)
    assert abs(evaluate(T, list(est.witness))) == pytest.approx(est.lower, rel=1e-12)
    for x in est.witness:
        assert np.abs(x).max() == 1.0


@pytest.mark.parametrize("m, n", [(2, 5), (3, 3), (4, 2)])
@pytest.mark.parametrize("block", [3, 4096])
def test_exact_enum_witness_attains_value(m, n, block):
    # block 3 splits slot 2 into a 2-row sign table and per-batch offsets
    T = generate("gaussian", m, n, REAL, 10 * m + n)
    est = exact_linf_enum(T, block=block)
    assert est.lower == pytest.approx(_brute_force_linf(T), rel=1e-12)
    assert abs(evaluate(T, list(est.witness))) == pytest.approx(est.lower, rel=1e-12)
    assert all(np.abs(x).max() == 1.0 for x in est.witness)


def test_restart_prefix():
    # restart r depends only on (seed, r): the starts of a smaller run are a
    # prefix of a larger run's, and each restart ascends to the same value
    # whatever batch it runs in, so more restarts never lower the bound
    rng = np.random.default_rng(47)
    for field in (REAL, COMPLEX):
        for p in (4.0, math.inf):
            for _ in range(4):
                T = generate("gaussian", 3, 3, field, int(rng.integers(2**32)))
                seed = int(rng.integers(2**32))
                cx = field is COMPLEX
                few = _random_starts(seed, 8, 3, 3, p, cx)
                many = _random_starts(seed, 32, 3, 3, p, cx)
                for a, b in zip(few, many):
                    assert np.array_equal(a, b[:8])
                v_few = _ascend(T.coeffs, few, p, 500, 1e-10)[0]
                v_many = _ascend(T.coeffs, many, p, 500, 1e-10)[0]
                assert np.array_equal(v_few, v_many[:8])
                lower8 = alternating_max(T, p, restarts=8, seed=seed).lower
                lower32 = alternating_max(T, p, restarts=32, seed=seed).lower
                assert lower32 >= lower8


def test_random_starts_are_one_stream():
    # pins the stream: one default_rng(seed) draw of every restart's normals,
    # restart-major, real and imaginary parts in the restart's own block
    for seed in (5, np.random.SeedSequence([3, 4])):
        for cx in (False, True):
            for p in (1.5, 4.0, math.inf):
                rng = np.random.default_rng(seed)
                if cx:
                    z = rng.standard_normal((6, 2, 3, 4))
                    x = z[:, 0] + 1j * z[:, 1]
                else:
                    x = rng.standard_normal((6, 3, 4))
                if math.isinf(p):
                    expected = x / np.abs(x)
                else:
                    expected = x / ((np.abs(x) ** p).sum(axis=-1, keepdims=True) ** (1.0 / p))
                starts = _random_starts(seed, 6, 3, 4, p, cx)
                assert len(starts) == 3
                for k in range(3):
                    assert np.array_equal(starts[k], expected[:, k])


@pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (4, 2)])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("p", [1.5, 4.0, math.inf])
def test_batched_ascent_matches_single_tensor_calls(m, n, field, p):
    # B tensors ascend as one stack, row r on tensor owner[r]; every row must
    # match the one-tensor call bit for bit (values, vectors, convergence),
    # also when rows freeze at different sweeps or run out of sweeps
    rng = np.random.default_rng(1000 * m + n)
    cx = field is COMPLEX
    B, R = 3, 5
    tensors = [generate("gaussian", m, n, field, int(rng.integers(2**32))) for _ in range(B)]
    starts = [_random_starts(int(rng.integers(2**32)), R, m, n, p, cx) for _ in range(B)]
    stack = np.stack([T.coeffs for T in tensors])
    owner = np.repeat(np.arange(B), R)
    for max_iters in (500, 3):
        batched = _ascend(
            stack, [np.concatenate([s[k] for s in starts]) for k in range(m)],
            p, max_iters, 1e-10, owner,
        )
        for b, T in enumerate(tensors):
            rows = slice(b * R, (b + 1) * R)
            values, vectors, converged = _ascend(T.coeffs, starts[b], p, max_iters, 1e-10)
            assert np.array_equal(batched[0][rows], values)
            assert np.array_equal(batched[2][rows], converged)
            for k in range(m):
                assert np.array_equal(batched[1][k][rows], vectors[k])


def test_batch_entry_matches_alternating_max():
    rng = np.random.default_rng(67)
    for field in (REAL, COMPLEX):
        for p in (4.0, math.inf):
            tensors = [generate("gaussian", 3, 3, field, int(rng.integers(2**32))) for _ in range(4)]
            seeds = [np.random.SeedSequence([9, b]) for b in range(4)]
            batch = _alternating_max_batch(tensors, p, 6, 500, 1e-10, seeds)
            for T, seed, est in zip(tensors, seeds, batch):
                single = alternating_max(T, p, restarts=6, seed=seed)
                assert est.to_jsonable() == single.to_jsonable()
                for a, b in zip(est.witness, single.witness):
                    assert np.array_equal(a, b)


def test_monotone_ascent_trace():
    rng = np.random.default_rng(53)
    for _ in range(10):
        T = generate("gaussian", 2, 4, REAL, int(rng.integers(2**32)))
        starts = rng.standard_normal((2, 6, 4))
        vectors = list(starts / np.linalg.norm(starts, axis=-1, keepdims=True))
        # a run of k sweeps stops where a longer run is after its k-th sweep
        trace = [_ascend(np.asarray(T.coeffs), vectors, 2.0, k, 1e-12)[0] for k in range(1, 51)]
        assert trace[0].shape == (6,)
        for earlier, later in zip(trace, trace[1:]):
            assert np.all(later >= earlier - 1e-12)


def test_exact_enum_matches_brute_force():
    rng = np.random.default_rng(61)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        T = generate("gaussian", 2, n, REAL, int(rng.integers(2**32)))
        est = exact_linf_enum(T)
        assert est.lower == est.upper
        assert est.lower == pytest.approx(_brute_force_linf(T), rel=1e-12)


def test_exact_enum_trilinear_brute_force():
    T = generate("signs", 3, 2, REAL, 71)
    est = exact_linf_enum(T)
    assert est.lower == pytest.approx(_brute_force_linf(T), rel=1e-12)


def test_exact_enum_sign_matrix():
    est = exact_linf_enum(_tensor(np.array([[1.0, 1.0], [1.0, -1.0]])))
    assert est.lower == 2.0
    assert est.method is NormMethod.EXACT_SIGN_ENUM


def test_exact_enum_guards():
    with pytest.raises(DomainError):
        exact_linf_enum(generate("steinhaus", 2, 2, COMPLEX, 1))
    with pytest.raises(BudgetError):
        exact_linf_enum(generate("gaussian", 2, 8, REAL, 1), pattern_budget=4)


def test_crude_upper_examples():
    assert crude_upper(generate("sparse_unit", 2, 3, REAL, 2)) == 1.0
    assert crude_upper(_tensor(np.eye(2))) == 2.0
    assert crude_upper(_tensor(np.ones((2, 2)))) == 4.0


def test_alternating_never_exceeds_exact():
    rng = np.random.default_rng(77)
    agree = 0
    for _ in range(20):
        n = int(rng.integers(2, 4))
        T = generate("gaussian", 2, n, REAL, int(rng.integers(2**32)))
        exact = exact_linf_enum(T).lower
        est = alternating_max(T, math.inf, restarts=50, seed=int(rng.integers(2**32)))
        assert est.lower <= exact + 1e-12
        if abs(est.lower - exact) <= 1e-9 * max(1.0, exact):
            agree += 1
    assert agree >= 19


def test_norms_nondecreasing_in_p():
    # unit balls grow with p, so certified lower bounds at smaller p cannot
    # beat the exact norm at p = inf
    rng = np.random.default_rng(83)
    for _ in range(10):
        T = generate("gaussian", 2, 3, REAL, int(rng.integers(2**32)))
        exact_inf = exact_linf_enum(T).upper
        for p in (1.5, 2.0, 4.0):
            est = alternating_max(T, p, restarts=8, seed=1)
            assert est.lower <= exact_inf + 1e-9


def test_m1_dual_closed_form():
    T = FormTensor(m=1, n=4, field=REAL, coeffs=np.array([3.0, -4.0, 0.0, 0.0]))
    # a linear functional: its norm is the closed-form dual norm, not an ascent
    with pytest.raises(DomainError, match="m >= 2"):
        alternating_max(T, 2.0, restarts=1, seed=0)
    enum = exact_linf_enum(T)
    assert enum.lower == pytest.approx(7.0, rel=1e-14)  # l1 mass on l_inf


def test_alternating_domain_errors():
    T = generate("gaussian", 2, 2, REAL, 1)
    with pytest.raises(DomainError):
        alternating_max(T, 1.0)
    with pytest.raises(DomainError):
        alternating_max(T, 2.0, restarts=0)


def test_estimates_jsonable():
    est = exact_linf_enum(_tensor(np.eye(2)))
    payload = est.to_jsonable()
    assert set(payload) == {"lower", "upper", "method", "restarts", "converged"}


@given(
    shape=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]),
    kind=st.sampled_from(["gaussian", "signs"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_linf_sandwich_ascent_exact_mass(shape, kind, seed):
    # at real p = inf: ascent lower bound <= exact norm <= coefficient mass
    m, n = shape
    T = generate(kind, m, n, REAL, seed)
    lower = alternating_max(T, math.inf, restarts=4, seed=seed).lower
    exact = exact_linf_enum(T).lower
    assert lower <= exact * (1.0 + 1e-12)
    assert exact <= crude_upper(T) * (1.0 + 1e-12)
