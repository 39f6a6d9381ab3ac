"""Operator-norm sandwiches: dual closed forms, ascent, exact enumeration."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hlcert import (
    BudgetError,
    DomainError,
    FormTensor,
    NormEstimate,
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
from hlcert import norms as norms_module
from hlcert import tensor as tensor_module
from hlcert.norms import (
    _RESTARTS,
    _ascend,
    _best_restarts,
    _certified_mass,
    _exact_linf_stack,
    _hoelder_bounds,
    _interpolation_bounds,
    _linf_bounds,
    _random_starts,
    _root_count,
)
from hlcert.tensor import _SIGNS, _magnitudes, _unit_roots, _unit_scaled

REAL = ScalarField.REAL
COMPLEX = ScalarField.COMPLEX


def _tensor(coeffs, field=REAL):
    arr = np.asarray(coeffs)
    return FormTensor(m=arr.ndim, n=arr.shape[0], field=field, coeffs=arr)


def _rounded_hoelder(T, p):
    # stage 1's Hoelder bound: crude_upper rounded outward, at p = inf by the
    # certified mass, elsewhere by (3 n^m + 70) units of 2^-53, then
    # 1 + 2^-50; stage 1 rounds T scaled to magnitude about 1, which for a T
    # of normal magnitude rounds the same bits
    h = crude_upper(T, p)
    if math.isinf(p):
        return float(_certified_mass(np.array([h]), T.size)[0]) if h > 0.0 else 0.0
    return h * (1.0 + (3 * T.size + 70) * 2.0**-53) * (1.0 + 2.0**-50)


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
        est = alternating_max(T, p, seed=0)
        assert math.isfinite(est.lower) and 0.0 < est.lower <= est.upper
    D = _tensor(np.array([[1.0, 0.0], [0.0, 1e-310j]]), COMPLEX)
    est = alternating_max(D, 4.0, seed=0)
    assert math.isfinite(est.lower) and est.lower <= est.upper
    chain = verify_proof_chain(T, 1.5, 2.0, mc_samples=2_000, seed=3)
    assert chain.passed and math.isfinite(chain.norm_lower)
    assert chain.norm_lower <= chain.norm_upper


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("p", [1.5, 2.5, 4.0, math.inf])
@pytest.mark.parametrize("k", [-1060, -1030, -1000, 0, 600])
def test_bounds_of_extreme_scalings_are_finite_and_scale_bit_for_bit(field, p, k):
    # every bound runs on the tensor scaled by `_unit_scaled`, the ascent
    # and the Hoelder branch at p < 2 and p = inf included: a subnormal
    # complex tensor does not overflow (complex / real multiplies by
    # 1/unit), no absolute slack dwarfs a tiny tensor, and an exact 2^k
    # scaling moves no bit (a RuntimeWarning fails the suite)
    T = generate("gaussian", 3, 3, field, 5)
    S = FormTensor(m=3, n=3, field=field, coeffs=T.coeffs * math.ldexp(1.0, k))
    exact = k in (-1000, 0, 600)   # every entry of 2^k T normal
    assert exact == (np.abs(S.coeffs).min() >= 2.0**-1022)
    K = _root_count(3, 3)
    est, big = alternating_max(T, p), alternating_max(S, p)
    pairs = [(est.lower, big.lower), (est.upper, big.upper)]
    for roots in (None, K):
        pairs.append(tuple(_interpolation_bounds(X.coeffs[None], p, roots)[0] for X in (T, S)))
        assert big.lower <= pairs[-1][1]
    linf = [_linf_bounds(X.coeffs[None], _unit_roots(K)) for X in (T, S)]
    pairs += [(linf[0][0][0], linf[1][0][0]), (linf[0][1][0], linf[1][1][0])]
    assert big.upper <= pairs[2][1] and pairs[4][1] <= pairs[5][1]
    for small, large in pairs:
        assert math.isfinite(large) and large > 0.0
        # 2^k times T's to three digits, also where 2^k T's entries lose bits
        assert large == pytest.approx(math.ldexp(small, k), rel=1e-3, abs=0.0)
        assert large == math.ldexp(small, k) or not exact


def test_alternating_max_is_reproducible_by_default():
    # the default seed is 0, as at every other entry point: no OS entropy
    T = generate("gaussian", 3, 3, REAL, 4)
    first, second = alternating_max(T, 4.0), alternating_max(T, 4.0)
    assert (first.lower, first.upper) == (second.lower, second.upper)
    assert all(np.array_equal(a, b) for a, b in zip(first.witness, second.witness))
    assert first.lower == alternating_max(T, 4.0, seed=0).lower


def test_alternating_sparse_unit_exact():
    for p in (1.5, 2.0, math.inf):
        T = generate("sparse_unit", 2, 3, REAL, 11)
        est = alternating_max(T, p, seed=0)
        assert est.lower == pytest.approx(1.0, abs=1e-12)
        assert est.upper == pytest.approx(1.0, abs=1e-12)


def test_alternating_identity_linf_matches_enum():
    T = _tensor(np.eye(2))
    oracle = exact_linf_enum(T)
    assert oracle.lower == 2.0
    est = alternating_max(T, math.inf, seed=1)
    assert est.lower == pytest.approx(2.0, abs=1e-10)


def test_alternating_rank_one_p2():
    # rank-one tensor: norm factors into dual norms of the two vectors
    T = _tensor(np.ones((2, 2)))
    est = alternating_max(T, 2.0, seed=2)
    assert est.lower == pytest.approx(2.0, rel=1e-10)
    # at most the Hoelder bound ||coeff||_2, exact on a rank-one tensor, rounded outward
    assert 2.0 < est.upper <= _rounded_hoelder(T, 2.0) < 2.0 * (1.0 + 1e-13)


def test_rank_one_closed_form_oracle():
    rng = np.random.default_rng(17)
    for p in (2.0, 3.0):
        pp = p / (p - 1.0)
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        T = _tensor(np.outer(u, v))
        oracle = (np.abs(u) ** pp).sum() ** (1 / pp) * (np.abs(v) ** pp).sum() ** (1 / pp)
        est = alternating_max(T, p, seed=3)
        assert est.lower == pytest.approx(oracle, rel=1e-9)


def test_witness_validity():
    rng = np.random.default_rng(41)
    for field, p in itertools.product((REAL, COMPLEX), (1.5, 2.0, 3.0, 4.0, math.inf)):
        for _ in range(5):
            T = generate("gaussian", 3, 3, field, int(rng.integers(2**32)))
            est = alternating_max(T, p, seed=int(rng.integers(2**32)))
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
def test_exact_enum_witness_attains_value(m, n, block, monkeypatch):
    # block 3 splits slot 2 into a 2-row sign table and per-batch offsets
    monkeypatch.setattr(tensor_module, "DEFAULT_BLOCK", block)
    T = generate("gaussian", m, n, REAL, 10 * m + n)
    est = exact_linf_enum(T)
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
                v_few = _ascend(T.coeffs[None], few, p, 500, 1e-10)[0]
                v_many = _ascend(T.coeffs[None], many, p, 500, 1e-10)[0]
                assert np.array_equal(v_few, v_many[:8])
                lower8 = _best_restarts(T.coeffs[None], p, 8, [seed])[0]
                lower32 = _best_restarts(T.coeffs[None], p, 32, [seed])[0]
                assert lower32 >= lower8


def test_every_restart_runs_to_its_own_convergence():
    # certify's trial 41 of (3, 6, 4, 1) at seed 23 with gaussian tensors:
    # after sweep 23, restart 25 sits 15.9% below an already converged
    # earlier restart and gains 9.2e-7 of its value per sweep, then converges
    # at sweep 61 3.9% above it.  A rule that stops a trailing restart early
    # loses this bound.
    gen, norm = np.random.SeedSequence([23, 41]).spawn(2)
    T = generate("gaussian", 3, 6, REAL, gen)
    assert alternating_max(T, 4.0, seed=norm).lower == 18.075921143393835
    assert _best_restarts(T.coeffs[None], 4.0, 25, [norm])[0][0] == 17.396201078217736


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
                    # the l_p norm with each sum scaled by its largest entry
                    mags = np.abs(x)
                    top = mags.max(axis=-1, keepdims=True)
                    norm = ((mags / top) ** p).sum(axis=-1, keepdims=True) ** (1.0 / p) * top
                    expected = x / norm
                starts = _random_starts(seed, 6, 3, 4, p, cx)
                assert len(starts) == 3
                for k in range(3):
                    assert np.array_equal(starts[k], expected[:, k])


@pytest.mark.parametrize("p", [700.0, 2000.0, 1e6])
@pytest.mark.parametrize("cx", [False, True])
def test_random_starts_at_large_p_are_distinct_unit_vectors(p, cx):
    # the raw sum of |x|^p overflowed from p of about 700 on: the rows
    # started at 0 or at e_1 (13 of 32 rows at zero at p = 2000, 8 distinct
    # starts at p = 1e6), with an overflow warning
    for v in _random_starts(3, 32, 3, 3, p, cx):
        mags = np.abs(v)
        top = mags.max(axis=1)
        norms = top * ((mags / top[:, None]) ** p).sum(axis=1) ** (1.0 / p)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)
        assert len(np.unique(v, axis=0)) == 32


@pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (4, 2)])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("p", [1.5, 4.0, math.inf])
def test_batched_ascent_matches_single_tensor_calls(m, n, field, p):
    # B tensors ascend as one stack, rows b*R .. b*R + R - 1 on tensor b;
    # every row must match the one-tensor call bit for bit (values, vectors,
    # convergence), also when rows freeze at different sweeps or run out of
    # sweeps
    rng = np.random.default_rng(1000 * m + n)
    cx = field is COMPLEX
    B, R = 3, 5
    tensors = [generate("gaussian", m, n, field, int(rng.integers(2**32))) for _ in range(B)]
    starts = [_random_starts(int(rng.integers(2**32)), R, m, n, p, cx) for _ in range(B)]
    stack = np.stack([T.coeffs for T in tensors])
    for max_iters in (500, 3):
        batched = _ascend(
            stack, [np.concatenate([s[k] for s in starts]) for k in range(m)],
            p, max_iters, 1e-10,
        )
        for b, T in enumerate(tensors):
            rows = slice(b * R, (b + 1) * R)
            values, vectors, converged = _ascend(T.coeffs[None], starts[b], p, max_iters, 1e-10)
            assert np.array_equal(batched[0][rows], values)
            assert np.array_equal(batched[2][rows], converged)
            for k in range(m):
                assert np.array_equal(batched[1][k][rows], vectors[k])


def test_batch_entry_matches_alternating_max(monkeypatch):
    # every tensor of a stack gets the best restart, stage 1 bound, capped
    # lower bound and convergence flag that alternating_max gives it alone,
    # bit for bit; a stage 1 bound below the ascent's value is what the
    # lower bound reports
    rng = np.random.default_rng(67)
    for field in (REAL, COMPLEX):
        for p in (4.0, math.inf):
            tensors = [generate("gaussian", 3, 3, field, int(rng.integers(2**32))) for _ in range(4)]
            seeds = [np.random.SeedSequence([9, b]) for b in range(4)]
            caps = [_rounded_hoelder(T, p) for T in tensors]
            stack = np.stack([T.coeffs for T in tensors])
            lower, upper, witness, converged = _best_restarts(stack, p, _RESTARTS, seeds)
            assert np.array_equal(upper, _interpolation_bounds(stack, p))
            for b, (T, seed) in enumerate(zip(tensors, seeds)):
                single = alternating_max(T, p, seed=seed)
                assert lower[b].tobytes() == np.float64(single.lower).tobytes()
                assert upper[b].tobytes() == np.float64(single.upper).tobytes()
                assert converged[b] == single.converged
                for k in range(3):
                    assert np.array_equal(witness[k][b], single.witness[k])
            assert np.all(lower <= upper) and np.all(upper <= caps)
            # the stage 1 bound of the scaled stack, which `_best_restarts`
            # multiplies back by the units
            low_caps, unit = lower / 2, _unit_scaled(stack)[1]
            with monkeypatch.context() as patch:
                patch.setattr(norms_module, "_stage_1_bounds", lambda scaled, p: low_caps / unit)
                capped = _best_restarts(stack, p, _RESTARTS, seeds)[0]
            assert np.array_equal(capped, low_caps)


def test_monotone_ascent_trace():
    rng = np.random.default_rng(53)
    for _ in range(10):
        T = generate("gaussian", 2, 4, REAL, int(rng.integers(2**32)))
        starts = rng.standard_normal((2, 6, 4))
        vectors = list(starts / np.linalg.norm(starts, axis=-1, keepdims=True))
        # a run of k sweeps stops where a longer run is after its k-th sweep
        trace = [_ascend(T.coeffs[None], vectors, 2.0, k, 1e-12)[0] for k in range(1, 51)]
        assert trace[0].shape == (6,)
        for earlier, later in zip(trace, trace[1:]):
            assert np.all(later >= earlier - 1e-12)


def test_exact_enum_matches_brute_force():
    rng = np.random.default_rng(61)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        T = generate("gaussian", 2, n, REAL, int(rng.integers(2**32)))
        est = exact_linf_enum(T)
        assert est.lower < est.upper <= est.lower * (1.0 + 1e-14)
        assert est.lower == pytest.approx(_brute_force_linf(T), rel=1e-12)


def test_exact_enum_trilinear_brute_force():
    T = generate("signs", 3, 2, REAL, 71)
    est = exact_linf_enum(T)
    assert est.lower == pytest.approx(_brute_force_linf(T), rel=1e-12)


def test_exact_enum_sign_matrix():
    est = exact_linf_enum(_tensor(np.array([[1.0, 1.0], [1.0, -1.0]])))
    assert est.lower == 2.0
    assert est.method is NormMethod.EXACT_SIGN_ENUM


def test_exact_enum_guards(monkeypatch):
    with pytest.raises(DomainError):
        exact_linf_enum(generate("steinhaus", 2, 2, COMPLEX, 1))
    monkeypatch.setattr(tensor_module, "PATTERN_BUDGET", 4)
    with pytest.raises(BudgetError):
        exact_linf_enum(generate("gaussian", 2, 8, REAL, 1))


def test_crude_upper_examples():
    assert crude_upper(generate("sparse_unit", 2, 3, REAL, 2)) == 1.0
    assert crude_upper(_tensor(np.eye(2))) == 2.0
    assert crude_upper(_tensor(np.ones((2, 2)))) == 4.0
    # the Hoelder bound ||coeff||_{p'}: ones(2, 2) = (1, 1) (x) (1, 1) has
    # norm ||(1, 1)||_{p'}^2 = 2^(2/p'), e.g. 2 at p = 2
    assert crude_upper(_tensor(np.ones((2, 2))), 2.0) == 2.0
    assert crude_upper(_tensor(np.eye(2)), 1.0) == 1.0
    with pytest.raises(DomainError):
        crude_upper(_tensor(np.eye(2)), 0.5)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_crude_upper_mass_and_max_at_the_ends(field):
    # p = inf (the default) is the coefficient mass bit for bit, p = 1 the
    # largest coefficient: the norm on l_1, where the ball's extreme points
    # are the basis vectors
    rng = np.random.default_rng(5)
    for m, n in [(2, 2), (2, 5), (3, 3), (4, 2)]:
        T = generate("gaussian", m, n, field, int(rng.integers(2**32)))
        mass = float(np.abs(T.coeffs).sum())
        assert crude_upper(T) == crude_upper(T, math.inf) == mass
        assert crude_upper(T, 1.0) == float(np.abs(T.coeffs).max())


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("p", [1.5, 2.0, 4.0, 8.0])
def test_crude_upper_is_exact_on_rank_one_tensors(field, p):
    # ||a_1 (x) ... (x) a_m|| = prod ||a_i||_{p'}, and so is the coefficient
    # tensor's l_{p'} norm
    rng = np.random.default_rng(int(10 * p))
    for m, n in [(2, 3), (3, 2), (3, 4)]:
        factors = [rng.standard_normal(n) for _ in range(m)]
        if field is COMPLEX:
            factors = [a + 1j * rng.standard_normal(n) for a in factors]
        coeffs = factors[0]
        for a in factors[1:]:
            coeffs = np.multiply.outer(coeffs, a)
        T = _tensor(coeffs, field)
        expected = math.prod(dual_norm_linear(a, p)[0] for a in factors)
        assert crude_upper(T, p) == pytest.approx(expected, rel=1e-13)
        est = alternating_max(T, p, seed=m)
        assert est.lower == pytest.approx(est.upper, rel=1e-9)


@pytest.mark.parametrize("p", [1.0, 1.5, 4.0, math.inf])
@pytest.mark.parametrize("k", [-600, 600])
def test_crude_upper_scales_by_powers_of_two_bit_for_bit(p, k):
    rng = np.random.default_rng(k + 3000)
    for field in (REAL, COMPLEX):
        T = generate("gaussian", 3, 3, field, int(rng.integers(2**32)))
        scaled = FormTensor(m=3, n=3, field=field, coeffs=math.ldexp(1.0, k) * T.coeffs)
        assert crude_upper(scaled, p) == math.ldexp(crude_upper(T, p), k)
    unit = generate("sparse_unit", 3, 3, REAL, 1)
    assert crude_upper(unit, p) == 1.0


@pytest.mark.parametrize("p", [1.0, 1.5, 4.0, math.inf])
def test_stacked_dual_norms_are_crude_upper_bit_for_bit(p):
    # one call over a stack gives every tensor the bound it gets alone
    rng = np.random.default_rng(17)
    for field in (REAL, COMPLEX):
        tensors = [generate("gaussian", 3, 3, field, int(rng.integers(2**32))) for _ in range(33)]
        tensors.append(_tensor(np.zeros((3, 3, 3)), field))
        values = _hoelder_bounds(*_magnitudes(np.stack([T.coeffs for T in tensors])), p)
        assert values.tolist() == [crude_upper(T, p) for T in tensors]


@pytest.mark.parametrize("lower, upper", [(math.nan, 1.0), (1.0, math.nan), (2.0, 1.0)])
def test_norm_estimate_refuses_a_bound_pair_out_of_order(lower, upper):
    # lower > upper is False when either is NaN, so a NaN bound used to pass
    with pytest.raises(ValueError, match="estimate lower"):
        NormEstimate(
            lower=lower, upper=upper, method=NormMethod.ALTERNATING_MAX, restarts=1,
            converged=True,
        )


def test_hoelder_bound_of_a_modulus_past_the_largest_float_is_refused():
    # finite parts, |z| about 2.1e308: the bound would be inf at every p (the
    # norm is at least |z|), so no tensor holds it and no stack's
    # magnitudes are taken
    coeffs = np.full((2, 2), 1.5e308 + 1.5e308j)
    with pytest.raises(DomainError, match="coefficients must all be finite"):
        _tensor(coeffs, COMPLEX)
    with pytest.raises(DomainError, match="coefficients must all be finite"):
        _magnitudes(coeffs[None])


@given(
    shape=st.sampled_from([(2, 2), (2, 4), (3, 2), (3, 3)]),
    field=st.sampled_from([REAL, COMPLEX]),
    p=st.sampled_from([1.5, 2.0, 4.0, 8.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_hoelder_bound_holds_the_ascent_and_is_below_the_mass(shape, field, p, seed):
    # ascent lower <= the ascent's upper <= ||coeff||_{p'} <= mass (equal to
    # the Hoelder bound below p = 2, at most it from p = 2 on); the ascent's
    # lower bound is capped by its upper one, so its witness's value is
    # checked too: the bound must hold every value the form attains on unit
    # vectors
    m, n = shape
    T = generate("gaussian", m, n, field, seed)
    upper = _rounded_hoelder(T, p)
    est = alternating_max(T, p, seed=seed)
    assert est.upper == upper if p < 2.0 else est.upper <= upper
    assert est.lower <= est.upper * (1.0 + 1e-12)
    assert upper <= crude_upper(T) * (1.0 + 1e-12)
    for x in est.witness:
        assert (np.abs(x) ** p).sum() ** (1.0 / p) == pytest.approx(1.0, rel=1e-12)
    assert abs(evaluate(T, est.witness)) <= est.upper * (1.0 + 1e-12)


def test_alternating_never_exceeds_exact():
    rng = np.random.default_rng(77)
    agree = 0
    for _ in range(20):
        n = int(rng.integers(2, 4))
        T = generate("gaussian", 2, n, REAL, int(rng.integers(2**32)))
        exact = exact_linf_enum(T).lower
        est = alternating_max(T, math.inf, seed=int(rng.integers(2**32)))
        assert est.lower <= exact + 1e-12
        if abs(est.lower - exact) <= 1e-9 * max(1.0, exact):
            agree += 1
    assert agree >= 19


@given(
    shape=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]),
    kind=st.sampled_from(["gaussian", "signs"]),
    p=st.sampled_from([1.5, 2.0, 4.0, math.inf]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_norms_nondecreasing_in_p(shape, kind, p, seed):
    # the l_p ball lies inside the l_inf ball, so ||T||_p <= ||T||_inf: an
    # ascent lower bound at finite p never exceeds the exact l_inf norm.  At
    # p = inf both compute the same norm and round differently (by up to
    # 2.7e-16 relative measured), hence the 1e-15 there.
    m, n = shape
    T = generate(kind, m, n, REAL, seed)
    exact_inf = exact_linf_enum(T).lower
    lower = alternating_max(T, p, seed=seed).lower
    if math.isinf(p):
        assert lower <= exact_inf * (1.0 + 1e-15)
    else:
        assert lower <= exact_inf


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("p", [1.5, 4.0, math.inf])
@pytest.mark.parametrize("k", [-600, 7, 600])
def test_alternating_max_scales_by_powers_of_two_bit_for_bit(field, p, k):
    # ||2^k T|| = 2^k ||T||, and scaling by a power of two is exact, so the
    # whole ascent scales: same witness and convergence, bounds times 2^k
    rng = np.random.default_rng(k + 1000)
    for m, n in [(2, 3), (3, 2), (3, 3)]:
        T = generate("gaussian", m, n, field, int(rng.integers(2**32)))
        scaled = FormTensor(m=m, n=n, field=field, coeffs=math.ldexp(1.0, k) * T.coeffs)
        seed = int(rng.integers(2**32))
        est = alternating_max(T, p, seed=seed)
        big = alternating_max(scaled, p, seed=seed)
        assert big.lower == math.ldexp(est.lower, k)
        assert big.upper == math.ldexp(est.upper, k)
        assert big.converged == est.converged
        for a, b in zip(big.witness, est.witness):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("k", [-600, 7, 600])
def test_exact_linf_enum_scales_by_powers_of_two_bit_for_bit(k):
    rng = np.random.default_rng(k + 2000)
    for m, n in [(2, 2), (2, 5), (3, 3), (4, 2)]:
        for kind in ("gaussian", "signs"):
            T = generate(kind, m, n, REAL, int(rng.integers(2**32)))
            scaled = FormTensor(m=m, n=n, field=REAL, coeffs=math.ldexp(1.0, k) * T.coeffs)
            est, big = exact_linf_enum(T), exact_linf_enum(scaled)
            assert big.lower == math.ldexp(est.lower, k)
            assert big.upper == math.ldexp(est.upper, k)
            for a, b in zip(big.witness, est.witness):
                assert np.array_equal(a, b)


def test_m1_dual_closed_form():
    T = FormTensor(m=1, n=4, field=REAL, coeffs=np.array([3.0, -4.0, 0.0, 0.0]))
    # a linear functional: its norm is the closed-form dual norm, not an ascent
    with pytest.raises(DomainError, match="m >= 2"):
        alternating_max(T, 2.0, seed=0)
    enum = exact_linf_enum(T)
    assert enum.lower == pytest.approx(7.0, rel=1e-14)  # l1 mass on l_inf


def test_alternating_domain_errors():
    T = generate("gaussian", 2, 2, REAL, 1)
    with pytest.raises(DomainError):
        alternating_max(T, 1.0)


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
    lower = alternating_max(T, math.inf, seed=seed).lower
    exact = exact_linf_enum(T).lower
    assert lower <= exact * (1.0 + 1e-12)
    assert exact <= crude_upper(T) * (1.0 + 1e-12)


@given(
    shape=st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]),
    kind=st.sampled_from(["gaussian", "steinhaus", "signs", "sparse_unit"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_complex_root_enumeration_sandwich(shape, kind, seed):
    # enum is attained on the l_inf ball, so it is at most the mass (up to
    # rounding: one-term tensors measure 2.2e-16 above it); the certified
    # upper bound holds the ascent's lower bound and is capped by the mass
    # rounded outward.  The ascent is local, so enum <= ascent is not a
    # property.
    m, n = shape
    T = generate(kind, m, n, COMPLEX, seed)
    mass = crude_upper(T)
    enum = float(_exact_linf_stack(T.coeffs[None], _unit_roots(12))[0][0])
    (lower,), (upper,), _ = _linf_bounds(T.coeffs[None], _unit_roots(12))
    assert enum <= mass * (1.0 + 1e-14)
    assert lower == min(enum, mass)
    assert lower <= upper <= _certified_mass(np.array([mass]), T.size)[0]
    assert upper >= alternating_max(T, math.inf, seed=seed).lower
    assert upper <= max(lower, 1e-300) / math.cos(math.pi / 12) ** (m - 1) * (1.0 + 1e-12)


@pytest.mark.parametrize("m, n", [(2, 9), (4, 4), (5, 3), (3, 5)])
def test_root_upper_bound_is_at_least_the_exact_mass_of_a_positive_tensor(m, n):
    # with nonnegative coefficients ||T|| on l_inf is the exact mass, attained
    # at the all-ones vectors; capped by the float sum, the upper bound fell
    # below it (in fractions) for 11-13 of these 20 tensors per shape
    stack = np.random.default_rng(100 * m + n).random((20,) + (n,) * m)
    upper = _linf_bounds(stack, _unit_roots(_root_count(m, n)))[1]
    for T, bound in zip(stack, upper):
        assert Fraction(float(bound)) >= sum(map(Fraction, T.ravel().tolist()))


@pytest.mark.parametrize("m, n", [(2, 1), (2, 5), (3, 3), (4, 2)])
def test_root_enumeration_with_two_roots_is_the_sign_enumeration(m, n):
    # the square roots of unity are the signs: the complex core run on a real
    # tensor gives the exact l_inf norm
    for seed in range(3):
        T = generate("gaussian", m, n, REAL, 50 * m + n + seed)
        roots = _unit_roots(2)
        assert np.array_equal(roots, [1.0, -1.0]) and roots.dtype == np.complex128
        exact = exact_linf_enum(T).lower
        assert _exact_linf_stack(T.coeffs[None], _SIGNS)[0][0] == exact
        got = _exact_linf_stack(T.coeffs.astype(np.complex128)[None], roots)[0][0]
        assert got == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("m, n, K", [(3, 3, 12), (2, 7, 8)])
def test_root_enumeration_of_a_tensor_does_not_depend_on_its_stack(m, n, K):
    # each tensor of a 33-tensor stack gets the value and the best pattern
    # it gets alone, bit for bit
    rng = np.random.default_rng(10 * m + n)
    kinds = ["gaussian", "steinhaus", "signs"]
    stack = np.stack([
        generate(kinds[b % 3], m, n, COMPLEX, int(rng.integers(2**32))).coeffs for b in range(33)
    ])
    values, indices = _exact_linf_stack(stack, _unit_roots(K))
    for b in range(len(stack)):
        value, index = _exact_linf_stack(stack[b : b + 1], _unit_roots(K))
        assert (values[b], indices[b]) == (value[0], index[0])


def test_root_bounds_of_a_stack_are_its_one_tensor_bounds():
    # a 33-tensor stack, real and complex tensors and a zero tensor, at the
    # K of (3, 3): both ends equal the one-tensor calls bit for bit
    rng = np.random.default_rng(97)
    K = _root_count(3, 3)
    tensors = [
        generate(kind, 3, 3, COMPLEX, int(rng.integers(2**32))).coeffs
        for kind in ["gaussian", "steinhaus", "sparse_unit"] * 10
    ]
    tensors += [generate("gaussian", 3, 3, REAL, 5).coeffs.astype(np.complex128)] * 2
    tensors.append(np.zeros((3, 3, 3), dtype=np.complex128))
    stack = np.stack(tensors)
    lower, upper, _ = _linf_bounds(stack, _unit_roots(K))
    assert lower.shape == upper.shape == (33,)
    for b in range(len(stack)):
        (alone_lower,), (alone_upper,), _ = _linf_bounds(stack[b : b + 1], _unit_roots(K))
        assert (lower[b], upper[b]) == (alone_lower, alone_upper)
    assert lower[32] == upper[32] == 0.0


def test_root_enumeration_budget_and_witness(monkeypatch):
    # (3, 3) complex: 12^4 root patterns; one below the count raises
    T = generate("steinhaus", 3, 3, COMPLEX, 4)
    monkeypatch.setattr(tensor_module, "PATTERN_BUDGET", 12**4 - 1)
    with pytest.raises(BudgetError):
        _linf_bounds(T.coeffs[None], _unit_roots(12))
    monkeypatch.setattr(tensor_module, "PATTERN_BUDGET", 12**4)
    (lower,), (upper,), _ = _linf_bounds(T.coeffs[None], _unit_roots(12))
    # the reported pattern index names a grid point attaining the lower bound
    values, indices = _exact_linf_stack(T.coeffs[None], _unit_roots(12))
    digits = [(int(indices[0]) // 12**b) % 12 for b in range(4)]
    roots = _unit_roots(12)
    z2 = np.array([1.0, roots[digits[0]], roots[digits[1]]])
    z3 = np.array([1.0, roots[digits[2]], roots[digits[3]]])
    value = np.abs(np.einsum("abc,b,c->a", T.coeffs, z2, z3)).sum()
    assert value == pytest.approx(lower, rel=1e-13)


@given(
    shape=st.sampled_from([(2, 3), (2, 5), (3, 2), (3, 3), (4, 2)]),
    field=st.sampled_from([REAL, COMPLEX]),
    kind=st.sampled_from(["gaussian", "signs", "sparse_unit", "steinhaus"]),
    p=st.sampled_from([2.5, 3.0, 4.0, 8.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_interpolation_bound_holds_a_64_restart_ascent(shape, field, kind, p, seed):
    # both stages bound ||T|| from above, so neither falls below the best of
    # 64 restarts (capped by the Hoelder bound only: a cap by the bound under
    # test would hold by construction), and stage 2 only tightens stage 1
    assume(not (kind == "steinhaus" and field is REAL))
    m, n = shape
    T = generate(kind, m, n, field, seed)
    hoelder = _rounded_hoelder(T, p)
    first = _interpolation_bounds(T.coeffs[None], p)[0]
    second = _interpolation_bounds(T.coeffs[None], p, _root_count(m, n))[0]
    assert second <= first <= hoelder
    starts = _random_starts(seed, 64, m, n, p, field is COMPLEX)
    lower = min(_ascend(T.coeffs[None], starts, p, 500, 1e-10)[0].max(), hoelder)
    assert lower <= second


@pytest.fixture
def without_hoelder(monkeypatch):
    # an inf Hoelder bound, so that the min does not hide the interpolation bound
    monkeypatch.setattr(
        norms_module, "_hoelder_bounds", lambda mags, top, p: np.full(len(mags), math.inf)
    )


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 8.0])
def test_interpolation_bound_of_a_single_coefficient_is_at_least_one(p, without_hoelder):
    # ||T|| = sigma = the mass = 1: the formula unrounded gave
    # 0.9999999999999998 here, so this checks the outward rounding
    for m, n in [(2, 3), (2, 5), (3, 2), (3, 3), (4, 2)]:
        for field in (REAL, COMPLEX):
            T = generate("sparse_unit", m, n, field, m + n)
            for roots in (None, _root_count(m, n)):
                bound = _interpolation_bounds(T.coeffs[None], p, roots)[0]
                assert 1.0 <= bound <= 1.0 + 1e-13


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_interpolation_bound_at_p2_is_the_largest_singular_value(field, n, without_hoelder):
    # at m = 2 and p = 2 the bound is sigma, the exact bilinear norm, plus
    # the certified margins: O(n^2) units of roundoff (20 to 100 units in
    # the last place measured at these n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        A = rng.standard_normal((n, n))
        if field is COMPLEX:
            A = A + 1j * rng.standard_normal((n, n))
        sigma = np.linalg.svd(A, compute_uv=False)[0]
        bound = _interpolation_bounds(A[None], 2.0)[0]
        assert sigma <= bound <= sigma * (1.0 + 1e-13)


@pytest.mark.parametrize("k", [-600, 7, 600])
def test_interpolation_bound_scales_by_powers_of_two_bit_for_bit(k, without_hoelder):
    # every tensor is scaled to magnitude about 1 first, so 2^k T gets 2^k
    # times the bound of T
    rng = np.random.default_rng(k + 4000)
    for field in (REAL, COMPLEX):
        for m, n in [(2, 3), (3, 3), (4, 2)]:
            stack = np.stack([
                generate("gaussian", m, n, field, int(rng.integers(2**32))).coeffs
                for _ in range(4)
            ])
            big = math.ldexp(1.0, k) * stack
            for p, roots in [(2.0, None), (3.0, None), (4.0, _root_count(m, n))]:
                small = _interpolation_bounds(stack, p, roots)
                large = _interpolation_bounds(big, p, roots)
                assert large.tolist() == [math.ldexp(b, k) for b in small]


@pytest.mark.parametrize("p", [2.5, 4.0, 4.5, 8.0])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_interpolation_bound_of_a_tensor_does_not_depend_on_its_stack(p, field):
    # one eigvalsh and one cholesky call cover the stack, and each tensor
    # gets the bound it gets alone, its own Hoelder bound included; a zero
    # tensor fails the Cholesky test (mu = 0) and gets 0 from the Frobenius
    # fallback and the Hoelder bound
    rng = np.random.default_rng(71)
    for m, n in [(2, 3), (2, 9), (3, 2), (3, 3), (4, 3)]:
        tensors = [
            math.exp(float(rng.uniform(-30.0, 30.0)))
            * generate("gaussian", m, n, field, int(rng.integers(2**32))).coeffs
            for _ in range(6)
        ]
        tensors.append(np.zeros((n,) * m))
        stack = np.stack(tensors)
        for roots in (None, _root_count(m, n)):
            # with roots, stage 2: one root enumeration of the whole stack
            bounds = _interpolation_bounds(stack, p, roots)
            alone = [
                _interpolation_bounds(stack[b : b + 1], p, roots)[0] for b in range(len(stack))
            ]
            assert bounds.tolist() == alone
            assert bounds[6] == 0.0
            hoelder = [_rounded_hoelder(FormTensor(m, n, field, t), p) for t in tensors[:6]]
            assert (bounds[:6] <= hoelder).all()
            if n**m >= 27:   # on the smallest shapes the Hoelder bound can win
                assert (bounds[:6] < hoelder).all()


@pytest.mark.parametrize("p", [1.5, 2.5, 4.0, math.inf])
def test_interpolation_bound_of_a_modulus_past_the_largest_float_is_refused(p):
    # finite parts, |z| about 2.1e308: a raw stack holding it is refused,
    # whatever else the stack holds and with or without the root cap
    ordinary = generate("gaussian", 3, 3, COMPLEX, 5).coeffs
    big = ordinary.copy()
    big[2, 0, 1] = 1.5e308 + 1.5e308j
    for roots in (None, _root_count(3, 3)):
        with pytest.raises(DomainError, match="coefficients must all be finite"):
            _interpolation_bounds(np.stack([ordinary, big]), p, roots)


def test_a_failed_cholesky_test_falls_back_to_the_frobenius_norm(monkeypatch, without_hoelder):
    # sigma <= ||A||_F: still a bound, only a looser one
    T = generate("gaussian", 3, 3, REAL, 5)
    tight = _interpolation_bounds(T.coeffs[None], 4.0)[0]
    monkeypatch.setattr(
        norms_module, "_cholesky_passes", lambda H: np.zeros(H.shape[:-2], dtype=bool)
    )
    loose = _interpolation_bounds(T.coeffs[None], 4.0)[0]
    frobenius = float(np.sqrt((T.coeffs**2).sum()))
    linf = min(float(np.abs(T.coeffs).sum()), 3.0**1.5 * frobenius)
    assert tight < loose
    assert loose == pytest.approx(frobenius**0.5 * linf**0.5, rel=1e-13)


@pytest.mark.parametrize("p", [1.0, 1.5, math.inf])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_interpolation_bound_outside_p_2_to_inf_is_the_hoelder_bound(p, field):
    # Riesz-Thorin between l_2 and l_inf covers 2 <= p < inf only: there
    # the bound is each tensor's crude_upper rounded outward, bit for bit,
    # in any stack
    tensors = [generate("gaussian", 3, 3, field, s) for s in range(5)]
    stack = np.stack([T.coeffs for T in tensors])
    for roots in (None, 12):
        bounds = _interpolation_bounds(stack, p, roots)
        assert bounds.tolist() == [_rounded_hoelder(T, p) for T in tensors]


def test_root_count_is_the_largest_k_within_2_to_the_18_patterns():
    table = {(m, n): _root_count(m, n) for m in (2, 3, 4) for n in range(1, 7)}
    assert [table[3, n] for n in range(1, 7)] == [12, 12, 12, 8, 4, None]
    assert [table[4, n] for n in range(1, 7)] == [12, 12, 8, 4, None, None]
    for (m, n), K in table.items():
        digits = (n - 1) * (m - 1)
        if K is None:
            assert 4**digits > 2**18
        else:
            assert K**digits <= 2**18 and all(k**digits > 2**18 for k in (12, 8, 6) if k > K)


@pytest.mark.parametrize("seed", [None, -1, 1.5, 2**40, "1"])
def test_alternating_max_refuses_a_bad_seed(seed):
    T = generate("gaussian", 2, 2, REAL, 1)
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        alternating_max(T, 4.0, seed=seed)


def test_alternating_max_seed_spellings_draw_one_stream():
    # an integer, its SeedSequence and its Generator start the same restarts,
    # the ones `_best_restarts` draws from the integer
    T = generate("gaussian", 3, 2, REAL, 5)
    lower, upper = _best_restarts(T.coeffs[None], 4.0, _RESTARTS, [7])[:2]
    for seed in (7, np.random.SeedSequence(7), np.random.default_rng(7)):
        est = alternating_max(T, 4.0, seed=seed)
        assert (est.lower, est.upper) == (float(lower[0]), float(upper[0]))
