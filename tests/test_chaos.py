"""Chaos moments, Khinchin/contraction checks, and the proof-chain verifier."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcert import (
    BudgetError,
    DomainError,
    FormTensor,
    ScalarField,
    TrialConfig,
    ViolationError,
    certify,
    check_contraction,
    check_khinchin,
    exponents,
    generate,
    khinchin_A,
    mixed_norm,
    rademacher_moment,
    search_extremal,
    solve_q0,
    steinhaus_moment,
    sweep_lambda0,
    verify_proof_chain,
)
from hlcert import chaos as chaos_module
from hlcert import tensor as tensor_module
from hlcert.norms import (
    _certified_mass, _linf_bounds, _root_count, alternating_max, crude_upper,
    exact_linf_enum,
)
from hlcert.tensor import _unit_roots, contract_trailing_signs, iter_sign_blocks

REAL = ScalarField.REAL
COMPLEX = ScalarField.COMPLEX


def _tensor(coeffs, field=REAL):
    arr = np.asarray(coeffs)
    return FormTensor(m=arr.ndim, n=arr.shape[0], field=field, coeffs=arr)


def _moment_by_loops(a, q):
    # independent oracle: explicit enumeration of all sign patterns
    n = len(a)
    total = 0.0
    for signs in itertools.product([-1.0, 1.0], repeat=n):
        total += abs(sum(s * c for s, c in zip(signs, a))) ** q
    return (total / 2**n) ** (1.0 / q)


def test_rademacher_moment_examples():
    assert rademacher_moment([1.0, 1.0], 2.0).value == pytest.approx(
        math.sqrt(2.0), rel=1e-14
    )
    # 4-pattern oracle: (|2| + 0 + 0 + |-2|) / 4 = 1
    assert rademacher_moment([1.0, 1.0], 1.0).value == pytest.approx(1.0, rel=1e-14)
    assert rademacher_moment([-2.5], 1.7).value == pytest.approx(2.5, rel=1e-14)


def test_rademacher_moment_matches_loop_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal(n)
        q = float(rng.uniform(1.0, 3.0))
        assert rademacher_moment(a, q).value == pytest.approx(
            _moment_by_loops(a, q), rel=1e-12
        )


def test_rademacher_moment_budget_and_domain():
    # the first sign is fixed to +1: ones(26) needs 2^25 patterns, one step over the budget
    with pytest.raises(BudgetError):
        rademacher_moment(np.ones(26), 2.0)
    with pytest.raises(DomainError):
        rademacher_moment([1.0], 0.5)
    with pytest.raises(DomainError):
        rademacher_moment([[1.0]], 2.0)


@pytest.mark.parametrize("q", [math.inf, math.nan])
def test_moments_reject_non_finite_exponents(q):
    # |x|^inf is 0 or inf, not a limit: the L_inf norm of [1, 2] is 3, where
    # the power mean gave 2.0; NaN used to give a silent NaN moment
    with pytest.raises(DomainError, match="finite"):
        rademacher_moment([1.0, 2.0], q)
    with pytest.raises(DomainError, match="finite"):
        steinhaus_moment([1.0, 1.0j], q, samples=100)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_raise_before_any_enumeration(bad, monkeypatch):
    # rademacher_moment([nan, 1], 2) used to run its whole enumeration and
    # then report "|chaos|^q overflows at q=2.0"
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated")

    monkeypatch.setattr(chaos_module, "sign_slices", no_enumeration)
    monkeypatch.setattr(chaos_module, "_steinhaus_slices", no_enumeration)
    calls = [
        lambda: rademacher_moment([bad, 1.0], 2.0),
        lambda: steinhaus_moment([bad, 1.0j], 2.0, samples=100),
        lambda: check_khinchin([bad, 1.0], 2.0),
        lambda: check_khinchin([bad, 1.0j], 2.0, field=ScalarField.COMPLEX, samples=100),
        lambda: check_contraction(np.array([[bad, 1.0], [1.0, 1.0]]), 2.0),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="coefficients must all be finite"):
            call()


def test_moment_monotone_in_q():
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = rng.standard_normal(6)
        values = [rademacher_moment(a, q).value for q in (1.0, 1.3, 1.7, 2.0, 2.5)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12


def test_monte_carlo_deterministic_per_seed():
    a = [1.0, -0.5j, 2.0]
    m1 = steinhaus_moment(a, 1.5, samples=5000, seed=3)
    m2 = steinhaus_moment(a, 1.5, samples=5000, seed=3)
    m3 = steinhaus_moment(a, 1.5, samples=5000, seed=4)
    assert m1.value == m2.value
    assert m1.value != m3.value


def test_steinhaus_moment_is_one_stream_drawn_in_blocks():
    # four full blocks of MC_BLOCK = 4096 samples and a tail of 5, against
    # one draw of the whole stream of SeedSequence([seed, 0])
    a = np.array([1.0 + 1.0j, -2.0, 0.5j, 0.25])
    q, samples, seed = 1.3, 2 * 8192 + 5, 11
    mom = steinhaus_moment(a, q, samples=samples, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    vals = np.abs(np.exp(2j * math.pi * rng.random((samples, a.size))) @ a) ** q
    mean = vals.mean()
    stderr = math.sqrt(max((vals**2).mean() - mean**2, 0.0) / samples)
    value = mean ** (1.0 / q)
    assert mom.value == pytest.approx(value, rel=1e-12)
    assert mom.stderr == pytest.approx(stderr * value / (q * mean), rel=1e-12)
    assert mom.samples == samples and mom.seed == seed


@pytest.mark.parametrize("k", [-700, 0, 660])
def test_moments_scale_by_powers_of_two_bit_for_bit(k):
    # both moments run on a / (power of two nearest max|a|), so scaling a by
    # 2^k scales the value (and the standard error) by exactly 2^k
    a = np.array([1.0, -0.75, 0.3, 2.5])
    c = np.array([1.0 + 1.0j, -2.0, 0.5j, 0.25])
    scale = 2.0**k
    assert rademacher_moment(a * scale, 1.7).value == scale * rademacher_moment(a, 1.7).value
    base = steinhaus_moment(c, 1.3, samples=3000, seed=5)
    scaled = steinhaus_moment(c * scale, 1.3, samples=3000, seed=5)
    assert scaled.value == scale * base.value
    assert scaled.stderr == scale * base.stderr


def test_moments_neither_overflow_nor_underflow():
    big = steinhaus_moment([1e200, 1e200], 2.0, samples=1000, seed=1)
    assert math.isfinite(big.value) and math.isfinite(big.stderr)
    assert big.value == pytest.approx(math.sqrt(2.0) * 1e200, rel=0.05)
    assert rademacher_moment([1e200, 1e200], 2.0).value == pytest.approx(
        math.sqrt(2.0) * 1e200, rel=1e-14
    )
    assert steinhaus_moment([1e-200] * 2, 2.0, samples=1000, seed=1).value > 0.0
    assert rademacher_moment([3e-170] * 2, 2.5).value > 0.0


@pytest.mark.parametrize("samples", [1e5, 2.5, 1])
def test_monte_carlo_sample_count_is_an_integer_of_at_least_two(samples):
    S = generate("steinhaus", 2, 2, COMPLEX, 3)
    with pytest.raises(DomainError, match="samples"):
        steinhaus_moment([1.0, 1.0j], 1.5, samples=samples)
    with pytest.raises(DomainError, match="samples"):
        check_khinchin([1.0, 1.0j], 1.5, COMPLEX, samples=samples)
    with pytest.raises(DomainError, match="samples"):
        verify_proof_chain(S, 1.5, 2.0, mc_samples=samples)


_PHASE_EDGES = [0.0, 2.0**-53, 0.25, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 0.75, 1.0 - 2.0**-53]


def test_steinhaus_phases_match_the_complex_exponential():
    u = np.concatenate([np.random.default_rng(13).random(1_000_000), _PHASE_EDGES])
    z = chaos_module._steinhaus_phases(u.copy())
    assert z.dtype == np.complex128 and z.shape == u.shape
    assert np.abs(z - np.exp(2j * math.pi * u)).max() <= 1e-15
    assert np.abs(np.abs(z) - 1.0).max() <= 1e-15
    assert z[-4].real == -1.0    # u = 1/2: t^2 about 2.6e32, far from overflow


def _steinhaus_stats(coeffs, q, samples, seed):
    # the one statistics loop over the Monte-Carlo block source
    blocks = chaos_module._steinhaus_slices(coeffs, samples, seed)
    return _as_means(chaos_module._chaos_stats(blocks, q), q)


def _as_means(stats, q):
    # `_chaos_stats` gives L_q norms and the delta-method error of the whole
    # chaos's; the references give means of |chaos|^q and the standard error
    # of the row-sum mean
    col_norms, norm, err, linf = stats
    mean = norm**q
    return col_norms**q, mean, err * q * mean / norm if norm > 0.0 else err, linf


def _steinhaus_stats_by_samples(coeffs, q, samples, seed):
    # per-sample reference: one draw of the whole stream, phases by the
    # complex exponential, the contraction slot by slot
    r, n = coeffs.ndim - 1, coeffs.shape[-1]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    phases = np.exp(2j * math.pi * rng.random((samples, r, n)))
    V = np.abs(contract_trailing_signs(coeffs, phases)) ** q
    rows = V.sum(axis=1)
    mean = rows.mean()
    stderr = math.sqrt(max((rows**2).mean() - mean**2, 0.0) / samples)
    return V.mean(axis=0), mean, stderr, None


def _assert_stats_close(got, want):
    # column means, then scalars (row-sum mean, standard error, l_inf norm
    # or None): all within 1e-12 relative
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0)
    for g, w in zip(got[1:], want[1:]):
        assert g is None if w is None else g == pytest.approx(w, rel=1e-12)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3), (4, 2)])
@pytest.mark.parametrize("free", ["one", "n"])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_steinhaus_stats_match_a_per_sample_reference(m, n, free, field):
    rng = np.random.default_rng(100 * m + n)
    f = 1 if free == "one" else n
    coeffs = rng.standard_normal((f,) + (n,) * (m - 1))
    if field is COMPLEX:
        coeffs = coeffs + 1j * rng.standard_normal(coeffs.shape)
    q, seed = 1.4, 17
    samples = 2 * chaos_module.MC_BLOCK + 5
    got = _steinhaus_stats(coeffs, q, samples, seed)
    want = _steinhaus_stats_by_samples(coeffs, q, samples, seed)
    _assert_stats_close(got, want)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_complex_chain_statistics_at_every_index(m):
    # the chain contracts a moved-axis view of the tensor: the reshape of
    # the matrix-product operand must follow the view, at every index
    S = generate("gaussian", m, 2 if m == 4 else 3, COMPLEX, 60 + m)
    samples = 2 * chaos_module.MC_BLOCK + 5
    for index in range(1, m + 1):
        view = np.moveaxis(S.coeffs, index - 1, 0)
        got = _steinhaus_stats(view, 1.5, samples, 9)
        want = _steinhaus_stats_by_samples(view, 1.5, samples, 9)
        _assert_stats_close(got, want)
        rep = verify_proof_chain(S, 1.5, 2.5, index=index, mc_samples=samples, seed=9)
        assert rep.mode == "mc" and rep.passed


def test_steinhaus_moment_q2_orthogonality():
    # E|sum a_j z_j|^2 = sum |a_j|^2 exactly; MC must land within noise
    a = np.array([1.0 + 1.0j, -2.0, 0.5j])
    mom = steinhaus_moment(a, 2.0, samples=200_000, seed=7)
    target = float(np.sqrt((np.abs(a) ** 2).sum()))
    assert abs(mom.value - target) <= 4.0 * (mom.stderr or 0.0) + 1e-6


def test_check_khinchin_equality_cases():
    # q = 2 is equality for every vector
    rng = np.random.default_rng(33)
    for _ in range(5):
        a = rng.standard_normal(5)
        rep = check_khinchin(a, 2.0, REAL)
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)
    # the known extremal pair at q = 1 (and any q <= q0)
    rep = check_khinchin([1.0, 1.0], 1.0, REAL)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)
    rep = check_khinchin([1.0, 1.0], 1.5, REAL)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)
    # single-term vectors: the moment equals the l2 mass exactly, so the
    # attainment ratio is 1/A_q (1 only at q = 2)
    rep = check_khinchin([3.0], 1.3, REAL)
    assert rep.mid == pytest.approx(rep.lhs / khinchin_A(1.3, REAL).value, abs=1e-12)
    assert rep.mid == pytest.approx(3.0, abs=1e-12)
    rep = check_khinchin([3.0], 2.0, REAL)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)


def test_check_khinchin_random_corpus_no_violation():
    rng = np.random.default_rng(45)
    q0 = solve_q0()
    for _ in range(30):
        a = rng.standard_normal(int(rng.integers(1, 9)))
        for q in (1.0, 1.3, q0, 1.9, 2.0):
            rep = check_khinchin(a, q, REAL)
            assert rep.passed
            assert rep.ratio >= 1.0 - 1e-12


@pytest.mark.parametrize("c", [1e160, 1e-200])
def test_check_khinchin_scales_with_the_vector(c):
    # both sides are 1-homogeneous: no overflow into a false violation, no
    # underflow into a vacuous pass
    base = np.array([1.0, 1.0, -0.5])
    unit = check_khinchin(base, 1.5, REAL)
    rep = check_khinchin(c * base, 1.5, REAL)
    assert rep.passed
    assert rep.lhs == pytest.approx(abs(c) * unit.lhs, rel=1e-12, abs=0.0)
    assert rep.mid == pytest.approx(abs(c) * unit.mid, rel=1e-12, abs=0.0)
    assert rep.ratio == pytest.approx(unit.ratio, rel=1e-12)


@pytest.mark.parametrize("top", [3.0, 1.5e308])
def test_check_khinchin_scales_once_and_reports_the_public_moments(top, monkeypatch):
    # the vector is checked and unit-scaled once and the moment's core runs
    # on it, so mid and stderr are the public moments bit for bit, also past
    # max|a| = 2^1023 * sqrt(2), where the scaling stops at 2^1023 and a
    # second scaling (by 2) would change the last bit
    a = top * np.array([1.0, -0.6, 0.3])
    z = a * np.exp(2j * np.arange(3))
    assert check_khinchin(a, 1.5, REAL).mid == rademacher_moment(a, 1.5).value
    report = check_khinchin(z, 1.5, COMPLEX, samples=500, seed=3)
    moment = steinhaus_moment(z, 1.5, samples=500, seed=3)
    assert (report.mid, report.stderr) == (moment.value, moment.stderr)
    scaled = []
    unit_scaled = chaos_module._unit_scaled

    def counted(arr):
        scaled.append(arr)
        return unit_scaled(arr)

    monkeypatch.setattr(chaos_module, "_unit_scaled", counted)
    check_khinchin(a, 1.5, REAL)
    check_khinchin(z, 1.5, COMPLEX, samples=500, seed=3)
    assert len(scaled) == 2


def test_check_khinchin_complex_soft():
    rng = np.random.default_rng(57)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rep = check_khinchin(a, 1.5, COMPLEX, samples=50_000, seed=2)
    assert rep.mode == "mc"
    assert rep.passed


# a 5-entry complex vector near equality (ratio about 1) whose 6,243-sample
# Monte-Carlo check misses its 3-sigma band at this seed
SOFT_MISS = dict(a=np.exp(2j * np.pi * np.arange(5) / 5), q=1.924, samples=6243, seed=172)


def test_check_khinchin_complex_miss_is_soft():
    rep = check_khinchin(SOFT_MISS["a"], SOFT_MISS["q"], COMPLEX,
                         samples=SOFT_MISS["samples"], seed=SOFT_MISS["seed"])
    assert rep.mode == "mc" and not rep.passed
    assert rep.mid < rep.lhs - 3.0 * rep.stderr


def test_check_khinchin_real_miss_still_raises(monkeypatch):
    # a constant too large by 10% fails both fields: the exact real check
    # raises, the complex Monte-Carlo check reports passed=False
    original = chaos_module.khinchin_A

    def inflated(q, field):
        return replace(original(q, field), value=1.1 * original(q, field).value)

    monkeypatch.setattr(chaos_module, "khinchin_A", inflated)
    with pytest.raises(ViolationError, match="Khinchin"):
        check_khinchin([1.0, 1.0, 1.0], 1.5)
    assert not check_khinchin([1.0, 1.0j, 1.0], 1.5, COMPLEX, samples=2000, seed=1).passed


def test_contraction_single_coefficient():
    arr = np.zeros((2, 2))
    arr[0, 1] = -3.0
    rep = check_contraction(arr, 1.7)
    assert rep.max_coeff == 3.0
    assert rep.moment == pytest.approx(3.0, rel=1e-12)


def test_contraction_m1_pair():
    rep = check_contraction(np.array([1.0, 1.0]), 2.0)
    assert rep.max_coeff == 1.0
    assert rep.moment == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_contraction_sign_matrix_16_pattern_oracle():
    arr = np.array([[1.0, 1.0], [1.0, -1.0]])
    # oracle: all 16 patterns by explicit loops
    total = 0.0
    for e1, e2, d1, d2 in itertools.product([-1.0, 1.0], repeat=4):
        val = (
            e1 * d1 * arr[0, 0] + e1 * d2 * arr[0, 1]
            + e2 * d1 * arr[1, 0] + e2 * d2 * arr[1, 1]
        )
        total += val**2
    oracle = math.sqrt(total / 16.0)
    assert oracle == pytest.approx(2.0, rel=1e-14)
    rep = check_contraction(arr, 2.0)
    assert rep.moment == pytest.approx(oracle, rel=1e-12)
    assert rep.max_coeff == 1.0


def test_contraction_random_corpus():
    rng = np.random.default_rng(60)
    for m, N in [(1, 8), (2, 4), (3, 3)]:
        for _ in range(5):
            arr = rng.standard_normal((N,) * m)
            for t in (1.0, 2.0, 3.0):
                assert check_contraction(arr, t).passed


@pytest.mark.parametrize("c, t", [(1e-200, 2.0), (1e160, 3.0)])
def test_contraction_scales_with_the_tensor(c, t):
    # the moment must neither underflow to 0 (a vacuous pass) nor overflow
    base = np.array([[1.0, -1.0], [-1.0, -1.0]])
    unit = check_contraction(base, t)
    rep = check_contraction(c * base, t)
    assert rep.passed
    assert rep.max_coeff == c
    assert rep.moment == pytest.approx(abs(c) * unit.moment, rel=1e-12, abs=0.0)
    assert rep.ratio == pytest.approx(unit.ratio, rel=1e-12)
    assert rep.ratio > 1.0


def test_contraction_guards():
    with pytest.raises(DomainError):
        check_contraction(np.ones((2, 3)), 2.0)  # not cubical
    with pytest.raises(DomainError):
        check_contraction(np.ones((2, 2)), 0.5)
    # 2^(5*5) patterns, one step over the budget ((5,)*6 needs exactly 2^24)
    with pytest.raises(BudgetError):
        check_contraction(np.ones((6, 6, 6, 6, 6)), 2.0)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_contraction_rejects_non_finite_t(t):
    # t = inf gave a false violation (the power mean at t = inf is no L_inf
    # norm), t = NaN a comparison that always fails
    arr = np.random.default_rng(1).standard_normal((3, 3))
    with pytest.raises(DomainError, match="finite"):
        check_contraction(arr, t)


def test_contraction_rejects_complex_coefficients():
    # casting to real would drop the imaginary part and check the real part
    arr = np.array([[1.0 + 5.0j, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError, match="real coefficients only"):
        check_contraction(arr, 2.0)


def test_rademacher_moment_rejects_complex_coefficients():
    # casting to real gave the moment of [1, 1] and only a ComplexWarning
    with pytest.raises(DomainError, match="real coefficients only"):
        rademacher_moment(np.array([1.0 + 2.0j, 1.0]), 2.0)


def test_real_khinchin_check_rejects_complex_coefficients():
    # casting to real checked the real part only
    with pytest.raises(DomainError, match="real coefficients only"):
        check_khinchin(np.array([1.0 + 2.0j, 1.0]), 1.5, REAL)


def _slice_chaos_stats(coeffs, lambda0):
    # the one statistics loop over the sign-pattern block source
    blocks = chaos_module.sign_slices(coeffs)
    return _as_means(chaos_module._chaos_stats(blocks, lambda0, linf=True), lambda0)


def _slice_chaos_stats_by_patterns(coeffs, lambda0):
    # per-pattern reference: every sign pattern contracted slot by slot
    r, n = coeffs.ndim - 1, coeffs.shape[-1]
    signs = next(iter_sign_blocks(n * r, block=1 << (n * r))).reshape(-1, r, n)
    mags = np.abs(contract_trailing_signs(coeffs, signs))
    rows = (mags**lambda0).sum(axis=1)
    return (mags**lambda0).mean(axis=0), rows.mean(), mags.sum(axis=1).max()


@pytest.mark.parametrize(
    "m, n", [(2, 1), (2, 6), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3)]
)
@pytest.mark.parametrize("block", [1, 5, 12, 16, 4096])
def test_slice_chaos_stats_match_a_per_pattern_reference(m, n, block, monkeypatch):
    monkeypatch.setattr(tensor_module, "DEFAULT_BLOCK", block)
    S = generate("gaussian", m, n, REAL, 10 * m + n)
    col_means, mean, _, linf = _slice_chaos_stats(S.coeffs, 1.3)
    want = _slice_chaos_stats_by_patterns(S.coeffs, 1.3)
    # an enumeration has no sampling error: its standard error is not compared
    _assert_stats_close((col_means, mean, linf), want)
    assert linf == pytest.approx(exact_linf_enum(S).lower, rel=1e-12)


@pytest.mark.parametrize("m, n", [(2, 1), (2, 3), (2, 6), (3, 2), (3, 4), (4, 2), (4, 3)])
@pytest.mark.parametrize("block", [1, 5, 16, 4096])
@pytest.mark.parametrize("free", ["n", "1"])
def test_reduced_enumeration_matches_the_full_one(m, n, block, free, monkeypatch):
    # the reduced patterns (first sign of each slot +1) give the moments, the
    # multiple-Khinchin R_j and the l_inf norm of all 2^(n(m-1)) patterns
    monkeypatch.setattr(tensor_module, "DEFAULT_BLOCK", block)
    f = n if free == "n" else 1
    coeffs = np.random.default_rng(1000 * m + n).standard_normal((f,) + (n,) * (m - 1))
    q = 1.3
    col_means, mean, _, linf = _slice_chaos_stats(coeffs, q)
    r = m - 1
    signs = next(iter_sign_blocks(n * r, block=1 << (n * r))).reshape(-1, r, n)
    mags = np.abs(contract_trailing_signs(coeffs, signs))
    np.testing.assert_allclose(col_means, (mags**q).mean(axis=0), rtol=1e-13, atol=0)
    assert mean == pytest.approx((mags**q).sum(axis=1).mean(), rel=1e-13)
    assert linf == pytest.approx(mags.sum(axis=1).max(), rel=1e-13)
    if free == "n":
        T = _tensor(coeffs)
        assert exact_linf_enum(T).lower == pytest.approx(mags.sum(axis=1).max(), rel=1e-13)
    else:
        moment = (mags[:, 0] ** q).mean() ** (1.0 / q)
        got = rademacher_moment(coeffs[0], q) if m == 2 else check_contraction(coeffs[0], q)
        value = got.value if m == 2 else got.moment
        assert value == pytest.approx(moment, rel=1e-13)


def test_slice_chaos_stats_cover_a_partial_last_block(monkeypatch):
    # (m, n, block) = (3, 3, 12) yields blocks of 12 and 4 of its 2^4
    # patterns, so the per-pattern reference above checks the column totals
    # of a short block
    monkeypatch.setattr(tensor_module, "DEFAULT_BLOCK", 12)
    S = generate("gaussian", 3, 3, REAL, 32)
    sizes = [len(V) for V in chaos_module.sign_slices(S.coeffs)]
    assert sizes == [12, 4]


@pytest.mark.parametrize("f, m, n", [(1, 2, 5), (3, 2, 4), (4, 3, 3), (2, 4, 2)])
@pytest.mark.parametrize("q", [1.0, 1.3, 2.0])
def test_slice_column_is_the_full_chaos_moment_of_its_slice(f, m, n, q):
    # column j of the slice statistics, to the power 1/q, is the L_q norm of
    # the full chaos with slice j's coefficients: multiple-Khinchin's R_j
    # and the contraction check's moment are one quantity
    coeffs = np.random.default_rng(7 * m + n).standard_normal((f,) + (n,) * (m - 1))
    col_means = _slice_chaos_stats(coeffs, q)[0]
    for j in range(f):
        assert col_means[j] ** (1.0 / q) == pytest.approx(
            check_contraction(coeffs[j], q).moment, rel=1e-12
        )


def _worst_slice_by_patterns(S, index, lam, s):
    # independent oracle for the real chain's multiple_khinchin link: per
    # slice j of the chosen index, R_j over all 2^(n(m-1)) sign patterns by
    # explicit loops, then the first slice of least slack A^{-2(m-1)/s} R_j - h_j
    C = np.moveaxis(np.asarray(S.coeffs), index - 1, 0)
    m, n = S.m, S.n
    factor = khinchin_A(lam, REAL).value ** (-2.0 * (m - 1) / s)
    theta = 2.0 / s
    h, rhs = [], []
    for row in C:
        total = 0.0
        for flat_signs in itertools.product([-1.0, 1.0], repeat=n * (m - 1)):
            eps = np.reshape(flat_signs, (m - 1, n))
            chaos = sum(
                row[idx] * math.prod(eps[k, a] for k, a in enumerate(idx))
                for idx in np.ndindex(row.shape)
            )
            total += abs(chaos) ** lam
        R = (total / 2 ** (n * (m - 1))) ** (1.0 / lam)
        l2 = math.sqrt(sum(c * c for c in row.flat))
        mx = max(abs(c) for c in row.flat)
        h.append(l2**theta * mx ** (1.0 - theta))
        rhs.append(factor * R)
    j = min(range(n), key=lambda k: rhs[k] - h[k])
    return h[j], rhs[j]


@pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (4, 2)])
@pytest.mark.parametrize("lam, s", [(1.3, 2.5), (1.0, 2.0)])
def test_chain_khinchin_link_is_the_worst_slice(m, n, lam, s):
    # at m = 2 each R_j is the Khinchin moment of row j, at s = 2 the link
    # is l2_j <= A^{-(m-1)} R_j itself; every index is a separate slicing
    S = generate("gaussian", m, n, REAL, 100 * m + n)
    for index in range(1, m + 1):
        link = verify_proof_chain(S, lam, s, index=index).links[1]
        lhs, rhs = _worst_slice_by_patterns(S, index, lam, s)
        assert link.name == "multiple_khinchin" and link.passed
        assert link.lhs == pytest.approx(lhs, rel=1e-12)
        assert link.rhs == pytest.approx(rhs, rel=1e-12)
        assert link.slack == link.rhs - link.lhs


def test_chain_khinchin_link_catches_a_wrong_constant_in_one_slice(monkeypatch):
    # rows (1, 1) and (1, 0) at lambda0 = 1, s = 2: row 1 is extremal for
    # Khinchin's inequality, so A_1 * 1.01 breaks its bound, while row 2's
    # room keeps the summed bound; a chain that checks only the sum passed
    right = chaos_module.khinchin_A

    def too_large(q, field):
        constant = right(q, field)
        return replace(constant, value=1.01 * constant.value)

    monkeypatch.setattr(chaos_module, "khinchin_A", too_large)
    S = _tensor([[1.0, 1.0], [1.0, 0.0]])
    rep = verify_proof_chain(S, 1.0, 2.0, raise_on_failure=False)
    assert rep.first_failure == "multiple_khinchin"
    link = rep.links[1]
    assert link.lhs == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert link.rhs == pytest.approx(math.sqrt(2.0) / 1.01, rel=1e-15)
    # the summed form holds: sum_j h_j (holder's rhs) <= A^-1 sum_j R_j (fubini's lhs)
    assert rep.links[0].rhs < rep.links[2].lhs
    assert all(other.passed for other in rep.links if other.name != "multiple_khinchin")
    with pytest.raises(ViolationError, match="'multiple_khinchin' failed"):
        verify_proof_chain(S, 1.0, 2.0)


@pytest.mark.parametrize("m, n", [(3, 8), (2, 3), (3, 3), (4, 2), (2, 8), (3, 4)])
def test_every_real_chain_passes_slice_by_slice(m, n):
    # with the right constant no slice fails, at any index
    for kind in ("gaussian", "signs", "sparse_unit"):
        S = generate(kind, m, n, REAL, 10 * m + n)
        for lam, s in ((1.0, 2.0), (1.5, 2.5), (2.0, 2.0), (1.2, 3.0)):
            for index in range(1, m + 1):
                assert verify_proof_chain(S, lam, s, index=index).passed


@pytest.mark.parametrize("k", [660, -660])
def test_chain_khinchin_link_scales_by_powers_of_two(k):
    # the chain runs on S scaled to max|coeff| about 1: at 2^660 |chaos|^2
    # would overflow, at 2^-660 the squares would vanish and pass vacuously
    # with lhs = rhs = 0
    S = generate("gaussian", 3, 3, REAL, 41)
    scaled = FormTensor(m=3, n=3, field=REAL, coeffs=S.coeffs * 2.0**k)
    for lam, s in ((1.3, 2.5), (2.0, 2.0)):
        base = verify_proof_chain(S, lam, s).links[1]
        link = verify_proof_chain(scaled, lam, s).links[1]
        assert link.passed and link.lhs > 0.0
        for key in ("lhs", "rhs", "slack"):
            assert getattr(link, key) == math.ldexp(getattr(base, key), k)


def test_chain_sparse_unit_all_links():
    S = generate("sparse_unit", 2, 2, REAL, 3)
    rep = verify_proof_chain(S, 2.0, 2.0)
    assert rep.passed
    # at lambda0 = 2 the constant factor is 1 and every quantity collapses to
    # |c|; the multiple_khinchin link is the first slice of least slack, here
    # the zero row (coefficient at [1, 1]), which ties the other at slack 0
    for link in rep.links:
        want = 0.0 if link.name == "multiple_khinchin" else 1.0
        assert link.lhs == pytest.approx(want, abs=1e-12)
        assert link.rhs == pytest.approx(want, abs=1e-12)


def test_chain_sign_matrix_frozen_values():
    S = _tensor(np.array([[1.0, 1.0], [1.0, -1.0]]))
    rep = verify_proof_chain(S, 1.0, 2.0)
    assert rep.passed
    factor = khinchin_A(1.0, REAL).value ** (-1.0)  # A_1^(-2*(m-1)/s) = A_1^(-1)
    assert rep.constant_factor == pytest.approx(factor, rel=1e-14)
    assert rep.norm_lower == 2.0
    # every displayed quantity equals 2*sqrt(2) for this extremal matrix
    assert rep.links[0].lhs == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-13)
    assert rep.links[-1].rhs == pytest.approx(factor * 2.0, rel=1e-13)
    assert rep.links[-1].name == "overall_bound"


def test_chain_m3_signs_lambda15():
    S = generate("signs", 3, 2, REAL, 8)
    e = exponents(3, 5.0, 1.5)
    rep = verify_proof_chain(S, 1.5, e.s)
    assert rep.passed
    for link in rep.links:
        assert link.slack >= -1e-12 or link.kind == "equality"


def test_chain_index_consistency():
    S = generate("gaussian", 3, 2, REAL, 15)
    swapped = FormTensor(
        m=3, n=2, field=REAL, coeffs=np.swapaxes(np.asarray(S.coeffs), 0, 1)
    )
    rep_i = verify_proof_chain(S, 1.0, 2.0, index=2)
    rep_1 = verify_proof_chain(swapped, 1.0, 2.0, index=1)
    for a, b in zip(rep_i.links, rep_1.links):
        assert a.lhs == pytest.approx(b.lhs, rel=1e-10)
        assert a.rhs == pytest.approx(b.rhs, rel=1e-10)


def test_chain_link_names_and_order():
    S = generate("gaussian", 2, 3, REAL, 19)
    rep = verify_proof_chain(S, 1.2, 2.5)
    assert [link.name for link in rep.links] == [
        "holder_interpolation",
        "multiple_khinchin",
        "fubini_substitution",
        "sup_domination",
        "overall_bound",
    ]
    assert rep.first_failure is None


def test_chain_random_corpus():
    rng = np.random.default_rng(90)
    for m, n, lam in [(2, 3, 1.0), (2, 3, 1.5), (3, 2, 1.0), (3, 2, 1.5)]:
        for _ in range(5):
            S = generate("gaussian", m, n, REAL, int(rng.integers(2**32)))
            rep = verify_proof_chain(S, lam, 2.0)
            assert rep.passed


@pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (4, 2)])
def test_chain_norm_is_exact_enum_in_one_pass(monkeypatch, m, n):
    S = generate("gaussian", m, n, REAL, 40 + m)
    expected = exact_linf_enum(S)
    calls = []
    core = chaos_module.sign_slices

    def counting(*args, **kwargs):
        calls.append(1)
        return core(*args, **kwargs)

    def second_pass(*args, **kwargs):
        raise AssertionError("the real chain must not enumerate a second time")

    monkeypatch.setattr(chaos_module, "sign_slices", counting)
    monkeypatch.setattr(chaos_module, "exact_linf_enum", second_pass)
    for index in range(1, m + 1):
        calls.clear()
        rep = verify_proof_chain(S, 1.5, 2.5, index=index)
        assert len(calls) == 1
        assert rep.norm_lower < rep.norm_upper <= rep.norm_lower * (1.0 + 1e-13)
        assert rep.norm_lower == pytest.approx(expected.lower, rel=1e-12)
        assert rep.norm_upper == pytest.approx(expected.upper, rel=1e-12)


def test_real_chain_norm_is_exact_linf_enum_bit_for_bit():
    # one l_inf bound rule, `_linf_bounds`, for every reader.  The chain's
    # `_chaos_stats` and `_exact_linf_stack` both take a pattern's row sum as
    # |V| @ ones, so the two sign maxima agree to the last bit (a power-of-two
    # scaling is exact), and `_rounded_linf` rounds both alike: the chain's
    # sandwich (scaled back) is exact_linf_enum's
    rng = np.random.default_rng(5)
    for m, n in [(3, 8), (2, 9), (3, 5), (4, 4), (2, 12), (3, 2), (2, 2)]:
        for _ in range(30):
            S = generate("gaussian", m, n, REAL, rng)
            rep = verify_proof_chain(S, 1.5, 2.5, index=1)
            est = exact_linf_enum(S)
            assert (rep.norm_lower, rep.norm_upper) == (est.lower, est.upper)
    # a real p = inf certify row's sandwich is exact_linf_enum's of its tensor
    cfg = TrialConfig(trials=20, keep_trials=True)
    for m, n in [(3, 5), (2, 9), (4, 2), (3, 3)]:
        for row in certify(m, n, math.inf, 2.0, REAL, config=cfg, seed=5).trial_rows:
            gen_ss = np.random.SeedSequence([5, row.index]).spawn(2)[0]
            est = exact_linf_enum(generate(row.kind, m, n, REAL, gen_ss))
            assert (row.lower, row.upper) == (est.lower, est.upper)
    # the complex chain's sandwich is `_linf_bounds` at its K-th roots of unity
    for m, n in [(3, 3), (2, 7), (3, 4)]:
        for kind in ("gaussian", "steinhaus"):
            S = generate(kind, m, n, COMPLEX, rng)
            S = FormTensor(m=m, n=n, field=COMPLEX, coeffs=3.0 * S.coeffs)
            rep = verify_proof_chain(S, 1.5, 2.5, mc_samples=2_000, seed=1)
            (lower,), (upper,), _ = _linf_bounds(S.coeffs[None], _unit_roots(_root_count(m, n)))
            assert (rep.norm_lower, rep.norm_upper) == (lower, upper)


@pytest.mark.parametrize("c", [1e160, -1e160, 1e-200, 3.0, 2.0**-700])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_chain_scales_with_the_tensor(c, field):
    # every chain quantity is 1-homogeneous: far from 1, the chain must
    # neither overflow (|S|^s = inf) nor underflow into a false result
    base = np.array([[1.0, 1.0], [1.0, -1.0]])
    if field is COMPLEX:
        base = base * np.exp(0.3j)
    unit = verify_proof_chain(_tensor(base, field), 1.5, 2.5, mc_samples=2_000, seed=5)
    rep = verify_proof_chain(_tensor(c * base, field), 1.5, 2.5, mc_samples=2_000, seed=5)
    assert rep.passed and rep.first_failure is None
    for a, b in zip(rep.links, unit.links):
        assert a.passed == b.passed
        assert a.lhs == pytest.approx(abs(c) * b.lhs, rel=1e-12, abs=0.0)
        assert a.rhs == pytest.approx(abs(c) * b.rhs, rel=1e-12, abs=0.0)
    assert rep.norm_lower == pytest.approx(abs(c) * unit.norm_lower, rel=1e-12, abs=0.0)
    assert rep.norm_upper == pytest.approx(abs(c) * unit.norm_upper, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("k", [-1060, -1030, -1000, 0, 600])
def test_chain_and_moments_of_extreme_scalings_are_finite_and_scale_bit_for_bit(field, k):
    # the chain, the moments and the Khinchin check run on their input
    # scaled by `_unit_scaled`, which divides a complex input's parts
    # separately: complex / real multiplied by 1/unit, which overflowed
    # below 2^-1022 into refused finite coefficients, a NaN moment and an
    # inf lhs (a RuntimeWarning fails the suite).  2^k T is exact (every
    # entry normal) at k = -1000, 0 and 600
    T = generate("gaussian", 3, 3, field, 5)
    S = FormTensor(m=3, n=3, field=field, coeffs=T.coeffs * math.ldexp(1.0, k))
    exact = k in (-1000, 0, 600)
    pairs = []
    for lam, s in ((1.5, 2.5), (2.0, 4.0)):
        base, rep = (verify_proof_chain(X, lam, s, mc_samples=2_000, seed=3) for X in (T, S))
        assert rep.passed and rep.norm_lower <= rep.norm_upper
        pairs += [(base.norm_lower, rep.norm_lower), (base.norm_upper, rep.norm_upper)]
        pairs += [(a.lhs, b.lhs) for a, b in zip(base.links, rep.links)]
        pairs += [(a.rhs, b.rhs) for a, b in zip(base.links, rep.links)]
    a, b = T.coeffs[0, 0], S.coeffs[0, 0]
    for q in (1.5, 2.5, 4.0):
        base, moment = (steinhaus_moment(x, q, samples=2_000, seed=3) for x in (a, b))
        pairs += [(base.value, moment.value), (base.stderr, moment.stderr)]
    for q in (1.2, 1.5, 2.0):   # the Khinchin constants' range
        base, check = (check_khinchin(x, q, field, samples=2_000, seed=3) for x in (a, b))
        assert check.passed
        pairs += [(base.lhs, check.lhs), (base.mid, check.mid)]
    for small, large in pairs:
        assert math.isfinite(large) and large > 0.0
        # 2^k times T's to three digits, also where 2^k T's entries lose bits
        assert large == pytest.approx(math.ldexp(small, k), rel=1e-3, abs=0.0)
        assert large == math.ldexp(small, k) or not exact


def test_chain_passes_at_the_largest_doubles():
    # the nearest power of two to 1.7e308 is 2^1024, which is not a double;
    # reported values may overflow, the checked (scaled) ones must not
    rep = verify_proof_chain(_tensor(np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308]])), 1.5, 2.5)
    assert rep.passed


def test_chain_domain_guards():
    S = generate("gaussian", 2, 2, REAL, 1)
    with pytest.raises(DomainError):
        verify_proof_chain(S, 1.0, 1.5)  # s < 2
    with pytest.raises(DomainError):
        verify_proof_chain(S, 0.5, 2.0)
    with pytest.raises(DomainError):
        verify_proof_chain(S, 1.0, 2.0, index=3)


@pytest.mark.parametrize("s", [math.inf, math.nan])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_chain_rejects_non_finite_s(s, field):
    # s = NaN raised ViolationError on the Holder link; s = inf is outside
    # the interpolation step
    S = generate("gaussian", 2, 3, field, 2)
    with pytest.raises(DomainError, match="finite s >= 2"):
        verify_proof_chain(S, 1.5, s, mc_samples=100)


def test_chain_complex_seeds_are_not_truncated():
    # SeedSequence([5 + 2^32, 0]) would hash like [5, 1], the ascent stream of
    # seed 5: a seed of 2^32 or more is refused rather than wrapped
    S = generate("steinhaus", 2, 3, COMPLEX, 27)
    with pytest.raises(DomainError, match="seed"):
        verify_proof_chain(S, 1.5, 2.0, mc_samples=2_000, seed=5 + 2**32)
    top = verify_proof_chain(S, 1.5, 2.0, mc_samples=2_000, seed=2**32 - 1)
    assert top.mode == "mc" and top.passed


@pytest.mark.parametrize("seed", [-1, None, 1.5, 2**32])
def test_chaos_entry_points_share_one_seed_rule(seed):
    real = generate("gaussian", 2, 2, REAL, 1)
    cplx = generate("steinhaus", 2, 2, COMPLEX, 1)
    with pytest.raises(DomainError, match="seed"):
        certify(3, 2, 4.0, 1.0, config=TrialConfig(trials=1), seed=seed)
    with pytest.raises(DomainError, match="seed"):
        search_extremal(3, 2, 4.0, 1.0, budget=1, seed=seed)
    with pytest.raises(DomainError, match="seed"):
        sweep_lambda0(3, 4.0, 2, grid=(1.0,), seed=seed)
    with pytest.raises(DomainError, match="seed"):
        verify_proof_chain(real, 1.5, 2.0, seed=seed)
    with pytest.raises(DomainError, match="seed"):
        verify_proof_chain(cplx, 1.5, 2.0, mc_samples=100, seed=seed)
    with pytest.raises(DomainError, match="seed"):
        steinhaus_moment([1.0, 1.0j], 1.5, samples=100, seed=seed)
    with pytest.raises(DomainError, match="seed"):
        check_khinchin([1.0, 1.0], 1.5, REAL, seed=seed)
    with pytest.raises(DomainError, match="seed"):
        check_khinchin([1.0, 1.0j], 1.5, COMPLEX, samples=100, seed=seed)


def _log_domain_moment(a, t):
    # the L_t norm of sum_ij eps_i delta_j a_ij over all sign patterns, by a
    # log-sum-exp with math.fsum: no power of |chaos| is formed
    n1, n2 = a.shape
    logs = [
        t * math.log(abs(float(np.array(e) @ a @ np.array(d))))
        for e in itertools.product((1.0, -1.0), repeat=n1)
        for d in itertools.product((1.0, -1.0), repeat=n2)
    ]
    top = max(logs)
    mean = math.fsum(math.exp(v - top) for v in logs) / len(logs)
    return math.exp((top + math.log(mean)) / t)


@pytest.mark.parametrize("q", [700.0, 3000.0])
def test_moments_at_large_exponents_match_their_closed_forms(q):
    # |V|^q overflowed here, and the moments raised DomainError; each power
    # sum is now scaled by its running largest term, so they pass.  The
    # chaos +-1 +-2 has the moment ((3^t + 1) / 2)^(1/t), written so that
    # no power overflows.
    a = np.random.default_rng(1).standard_normal((3, 3))
    report = check_contraction(a, q)
    assert report.passed
    assert report.moment == pytest.approx(_log_domain_moment(a, q), rel=1e-12)
    for t in (2 * q, 2000.0):
        want = 3.0 * math.exp((math.log1p(3.0**-t) - math.log(2.0)) / t)
        assert rademacher_moment([1.0, 2.0], t).value == pytest.approx(want, rel=1e-12)
    value = rademacher_moment([1.0, 2.0], 2000.0).value
    assert value == pytest.approx(2.998960459378228, rel=1e-12)


def test_moments_whose_powers_underflow_match_their_closed_form():
    # every |chaos|^t of [0.75, 0.1] underflows to 0 at t = 1e4: the moment
    # once read 0.0 and the contraction check raised a false ViolationError,
    # then both raised DomainError.  The moment is
    # 0.85 * ((1 + (0.65 / 0.85)^t) / 2)^(1/t).
    t = 1e4
    want = 0.85 * ((1.0 + (0.65 / 0.85) ** t) / 2.0) ** (1.0 / t)
    assert want == pytest.approx(0.8499410845315305, rel=1e-12)
    assert check_contraction([0.75, 0.1], t).moment == pytest.approx(want, rel=1e-12)
    assert rademacher_moment([0.75, 0.1], t).value == pytest.approx(want, rel=1e-12)
    # no sampled |chaos| exceeds 0.85, and 100 samples at t = 1e4 give at
    # least 100^(-1/t) = 0.99954 of the largest
    mc = steinhaus_moment([0.75, 0.1], t, samples=100)
    assert 0.8 < mc.value <= 0.85 and math.isfinite(mc.stderr)
    # at t = 2000 the moment is 0.85 * 2^(-1/2000) up to the 0.65^2000 term
    report = check_contraction([0.75, 0.1], 2000.0)
    assert report.moment == pytest.approx(0.85 * 0.5 ** (1.0 / 2000.0), rel=1e-12)
    assert rademacher_moment([0.0, 0.0], t).value == 0.0


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("kind, field", [("gaussian", REAL), ("steinhaus", COMPLEX)])
def test_chain_lhs_is_mixed_norm_bit_for_bit(m, kind, field):
    # the chain's lambda0-mixed l_s sum is `mixed_norm` of the caller's
    # tensor, not a formula of its own: the (3, 3) Gaussian of seed 1 at
    # index 1 used to give 4.52121395565488 against 4.521213955654881
    S = generate(kind, m, 3, field, 1)
    for s in (2.5, 7.0):
        for index in range(1, m + 1):
            rep = verify_proof_chain(S, 1.5, s, index=index, mc_samples=200, seed=1)
            links = {link.name: link for link in rep.links}
            expected = mixed_norm(S, index, s, 1.5)
            assert links["holder_interpolation"].lhs == expected
            assert links["overall_bound"].lhs == expected


def test_chain_at_a_large_s_passes_with_a_finite_lhs():
    # the largest entry is 2.71, about 1.36 on the chain's unit scale: its
    # l_s sum at s = 1e4 used to overflow, first into a false violation and
    # then into a DomainError; the kernel now scales each power sum by its
    # own largest term
    g = generate("gaussian", 3, 3, REAL, 1)
    report = verify_proof_chain(g, 1.5, 1e4)
    assert report.passed
    links = {link.name: link for link in report.links}
    assert links["holder_interpolation"].lhs == mixed_norm(g, 1, 1e4, 1.5)
    assert math.isfinite(links["holder_interpolation"].lhs)


_FINITE_SHAPES = [(3, 1), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]


@given(
    shape=st.sampled_from(_FINITE_SHAPES),
    field=st.sampled_from([REAL, COMPLEX]),
    k=st.integers(min_value=-900, max_value=900),
    log_x=st.floats(min_value=0.0, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_every_result_is_finite_or_the_call_raises(shape, field, k, log_x, seed):
    # a Gaussian tensor scaled by 2^k and an exponent x, log-uniform in
    # [1, 1e4]: each public norm and bound returns finite values or raises
    # DomainError, never inf or NaN, and warns of nothing; the mixed norms
    # (also at s = x and alpha = 1.5, as in the chain), the moments, the
    # contraction check and the chain are always finite
    m, n = shape
    x = 10.0**log_x
    coeffs = math.ldexp(1.0, k) * generate("gaussian", m, n, field, seed).coeffs
    T = FormTensor(m=m, n=n, field=field, coeffs=coeffs)
    row = T.coeffs.reshape(n, -1)[0]
    for s, alpha in [(2.0, 3.0), (x, 3.0), (2.0, x), (x, 1.5)]:
        values = tensor_module.mixed_norms(T, s, alpha)
        assert all(math.isfinite(v) for v in values), (s, alpha, values)
    finite = [
        _chain_values(verify_proof_chain(T, 1.5, max(x, 2.0), mc_samples=200, seed=1)),
        _moment_values(steinhaus_moment(row, x, samples=200, seed=1)),
    ]
    if field is REAL:
        finite.append(_moment_values(rademacher_moment(row, x)))
        finite.append(_contraction_values(check_contraction(T.coeffs, x)))
    for values in finite:
        assert all(math.isfinite(v) for v in values), values
    calls = [
        lambda: [crude_upper(T, 4.0), crude_upper(T, math.inf)],
        lambda: _estimate_values(alternating_max(T, 4.0)),
        lambda: _estimate_values(alternating_max(T, math.inf)),
        lambda: _estimate_values(alternating_max(T, max(x, 1.5))),
    ]
    if field is REAL:
        calls.append(lambda: _estimate_values(exact_linf_enum(T)))
    for call in calls:
        try:
            values = call()
        except DomainError:
            continue
        assert all(math.isfinite(v) for v in values), values


def _estimate_values(est):
    return [est.lower, est.upper]


def _chain_values(report):
    links = [v for link in report.links for v in (link.lhs, link.rhs, link.slack)]
    return links + [report.constant_factor, report.norm_lower, report.norm_upper]


def _moment_values(moment):
    return [moment.value] + ([] if moment.stderr is None else [moment.stderr])


def _contraction_values(report):
    return [report.max_coeff, report.moment, report.ratio]


def test_norms_past_the_largest_float_raise():
    # every coefficient 1e308: the Hoelder bounds and the l_inf norm came
    # back as inf with overflow warnings, and the ascent raised a bare
    # ValueError ("estimate lower nan > upper inf"); its stage 1 bound is
    # already past the largest float, so it refuses before the ascent
    T = FormTensor(m=2, n=3, field=REAL, coeffs=np.full((3, 3), 1e308))
    with pytest.raises(DomainError, match=r"Hoelder bounds overflow at p=inf"):
        crude_upper(T)
    with pytest.raises(DomainError, match=r"Hoelder bounds overflow at p=4.0"):
        crude_upper(T, 4.0)
    with pytest.raises(DomainError, match=r"l_inf norms overflow at p=inf"):
        exact_linf_enum(T)
    for p in (4.0, math.inf):
        with pytest.raises(DomainError, match=f"stage 1 bounds overflow at p={p}"):
            alternating_max(T, p)
    # 1e307 stays below the largest float: the l_inf norm is the mass
    small = FormTensor(m=2, n=3, field=REAL, coeffs=np.full((3, 3), 1e307))
    assert exact_linf_enum(small).lower == pytest.approx(9e307, rel=1e-15)


@pytest.mark.parametrize("m, n, K", [(3, 3, 12), (2, 7, 8), (3, 4, 8), (3, 5, 4)])
def test_complex_chain_bounds_the_norm_by_roots_of_unity(m, n, K):
    # wherever _root_count gives a K, the complex chain takes ||S|| from the
    # enumeration over the K-th roots of unity, the K of certify's stage 2:
    # a sandwich within 1/cos(pi/K)^(m-1) that holds the ascent's lower
    # bound; the Monte-Carlo links do not move
    assert _root_count(m, n) == K
    S = generate("steinhaus", m, n, COMPLEX, 11)
    rep = verify_proof_chain(S, 1.5, 2.5, mc_samples=20_000, seed=2)
    (lower,), (upper,), _ = _linf_bounds(S.coeffs[None], _unit_roots(K))
    assert (rep.norm_lower, rep.norm_upper) == (lower, upper)
    assert rep.norm_upper / rep.norm_lower <= math.cos(math.pi / K) ** (1 - m) * (1.0 + 1e-12)
    assert rep.norm_upper >= alternating_max(S, math.inf, seed=3).lower
    sup = {link.name: link for link in rep.links}["sup_domination"]
    assert sup.rhs == rep.constant_factor * rep.norm_upper
    assert rep.passed
    again = verify_proof_chain(S, 1.5, 2.5, mc_samples=20_000, seed=2)
    assert again.to_jsonable() == rep.to_jsonable() and again.mc_stderr == rep.mc_stderr


def test_complex_chain_over_the_budget_keeps_the_ascent_and_the_mass():
    # (3, 6): 12^10 root patterns exceed the budget, so the chain bounds ||S||
    # by the ascent on SeedSequence([seed, 1]) and the coefficient mass
    # rounded outward, as before the enumeration existed.  Steinhaus entries
    # have max |c| = 1, so the chain's power-of-two scaling is the identity.
    S = generate("steinhaus", 3, 6, COMPLEX, 12)
    rep = verify_proof_chain(S, 1.5, 2.5, mc_samples=2_000, seed=9, raise_on_failure=False)
    est = alternating_max(S, math.inf, seed=np.random.SeedSequence([9, 1]))
    assert rep.norm_lower == est.lower
    assert rep.norm_upper == _certified_mass(np.array([crude_upper(S)]), S.size)[0]
    again = verify_proof_chain(S, 1.5, 2.5, mc_samples=2_000, seed=9, raise_on_failure=False)
    assert again.to_jsonable() == rep.to_jsonable()


def test_chain_complex_monte_carlo_soft():
    S = generate("steinhaus", 2, 3, COMPLEX, 27)
    rep = verify_proof_chain(S, 1.5, 2.0, mc_samples=20_000, seed=4)
    assert rep.mode == "mc"
    assert rep.passed
    assert rep.mc_stderr is not None
    assert rep.norm_upper >= rep.norm_lower


@given(
    s=st.floats(min_value=2.0, max_value=8.0, allow_nan=False),
    data=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_interpolation_identity(s, data):
    # the Holder step in isolation: ||v||_s <= ||v||_2^theta * ||v||_inf^(1-theta)
    v = np.array(data)
    theta = 2.0 / s
    lhs = (v**s).sum() ** (1.0 / s)
    rhs = ((v**2).sum() ** 0.5) ** theta * (v.max() ** (1.0 - theta)) if v.max() > 0 else 0.0
    assert lhs <= rhs + 1e-12 * max(1.0, rhs)


def test_interpolation_exact_on_single_support():
    v = np.zeros(5)
    v[2] = 3.7
    s = 3.0
    theta = 2.0 / s
    lhs = (v**s).sum() ** (1.0 / s)
    rhs = ((v**2).sum() ** 0.5) ** theta * v.max() ** (1.0 - theta)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_check_contraction_refuses_a_scalar():
    with pytest.raises(DomainError, match="must have at least one axis"):
        check_contraction(np.array(2.0), 2.0)


@pytest.mark.parametrize("shape", [(0,), (0, 0)])
def test_check_contraction_refuses_an_empty_tensor(shape):
    # the scaling's largest magnitude has no empty case: refused first
    with pytest.raises(DomainError, match="must have at least one axis and one entry"):
        check_contraction(np.zeros(shape), 2.0)
