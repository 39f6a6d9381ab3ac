"""Region, exponent, transfer, and classical-exponent calculators."""

import math

import numpy as np
import pytest

from hlcert import (
    DomainError,
    ScalarField,
    SingularExponentError,
    TransferHypothesisError,
    TransferProblem,
    classical_exponents,
    exponents,
    khinchin_A,
    region,
    transfer,
)


def test_region_examples():
    r = region(3, 1.0)
    assert (r.lower, r.upper) == (3.0, 4.0)
    assert not r.empty

    r = region(2, 1.0)  # lower 2 = upper 2
    assert r.empty

    r = region(2, 2.0)
    assert r.lower == 4.0
    assert math.isinf(r.upper)
    assert not r.empty
    assert r.contains(math.inf)


def test_region_nonempty_iff_criterion():
    # nonempty <=> lambda0 * m > 2, from clearing denominators in the window
    for m in range(2, 9):
        for i in range(101):
            lam = 1.0 + i / 100.0
            assert (not region(m, lam).empty) == (lam * m > 2.0)


def test_region_domain_errors():
    with pytest.raises(DomainError):
        region(1, 1.5)
    with pytest.raises(DomainError):
        region(3, 0.9)
    with pytest.raises(DomainError):
        region(3, 2.1)


def test_exponents_worked_example_m3_p4():
    e = exponents(3, 4.0, 1.0, ScalarField.REAL)
    assert e.s == pytest.approx(2.0, abs=1e-12)
    assert e.eta1 == pytest.approx(4.0, abs=1e-12)
    # oracle: 2^((m-1)(p-m+1)/p) = 2^(2*2/4) = 2
    assert e.constant == pytest.approx(2.0, abs=1e-12)
    assert e.admissible


def test_exponents_m2_p4_lambda15():
    e = exponents(2, 4.0, 1.5, ScalarField.REAL)
    assert e.s == pytest.approx(2.4, abs=1e-12)
    assert e.eta1 == pytest.approx(6.0, abs=1e-12)
    # chained oracle: A_1.5 = 2^(1/2 - 2/3) (low branch), constant = A^(-2/2.4)
    A = khinchin_A(1.5, ScalarField.REAL).value
    assert A == pytest.approx(2.0 ** (0.5 - 2.0 / 3.0), abs=1e-13)
    assert e.constant == pytest.approx(A ** (-2.0 / 2.4), abs=1e-12)
    assert e.constant == pytest.approx(2.0 ** (5.0 / 36.0), abs=1e-12)


def test_exponents_m2_p6_lambda2():
    e = exponents(2, 6.0, 2.0, ScalarField.REAL)
    assert e.s == pytest.approx(3.0, abs=1e-12)
    assert e.eta1 == pytest.approx(6.0, abs=1e-12)
    assert e.admissible and e.extrapolated


def test_exponents_p_inf_lambda2():
    e = exponents(2, math.inf, 2.0, ScalarField.REAL)
    assert e.s == pytest.approx(2.0, abs=1e-12)
    assert e.eta1 == pytest.approx(2.0, abs=1e-12)
    assert e.constant == pytest.approx(1.0, abs=1e-12)
    assert e.admissible and e.extrapolated


def test_exponents_singular_denominators():
    with pytest.raises(SingularExponentError):
        exponents(3, 3.0, 1.0)  # p = lambda0 * m
    with pytest.raises(SingularExponentError):
        exponents(3, 2.0, 1.0)  # p = lambda0 * (m - 1)
    # non-strict mode reports NaN instead
    e = exponents(3, 3.0, 1.0, strict=False)
    assert math.isnan(e.eta1) and not e.admissible


def test_inadmissible_still_reported():
    e = exponents(2, 4.0, 1.0, ScalarField.REAL)
    assert not e.admissible
    assert e.s == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert e.eta1 == pytest.approx(2.0, abs=1e-12)


def test_boundary_equivalence_s_ge_2():
    # for lambda0 < 2: s >= 2 <=> p <= 2*lambda0*(m-1)/(2-lambda0)
    rng = np.random.default_rng(20240517)
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        lam = float(rng.uniform(1.0, 1.999))
        upper = 2.0 * lam * (m - 1) / (2.0 - lam)
        p = float(lam * (m - 1) + 0.05 + rng.uniform(0.0, 3.0 * upper))
        if p == lam * m:
            continue
        e = exponents(m, p, lam, strict=False)
        if (e.s >= 2.0) != (p <= upper):
            mismatches += 1
    assert mismatches == 0


def test_eta1_exceeds_s_on_admissible_triples():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        m = int(rng.integers(2, 7))
        lam = float(rng.uniform(1.0, 2.0))
        reg = region(m, lam)
        if reg.empty or math.isinf(reg.upper):
            hi = reg.lower + 10.0
        else:
            hi = reg.upper
        p = float(rng.uniform(reg.lower, hi))
        e = exponents(m, p, lam, strict=False)
        if not e.admissible:
            continue
        assert e.eta1 > e.s > 0.0
        assert e.s >= 2.0 - 1e-12
        assert e.constant >= 1.0 - 1e-12
        checked += 1


def test_lambda1_recovery_grid():
    # the lambda0 = 1 specialization: s = p/(p-m+1), eta1 = p/(p-m),
    # constant = 2^((m-1)(p-m+1)/p)
    for m in range(3, 8):
        p = m + 0.5
        while p <= 2 * m - 2 + 1e-9:
            e = exponents(m, p, 1.0, ScalarField.REAL)
            assert e.admissible
            assert e.s == pytest.approx(p / (p - m + 1), abs=1e-12)
            assert e.eta1 == pytest.approx(p / (p - m), abs=1e-12)
            assert e.constant == pytest.approx(
                2.0 ** ((m - 1) * (p - m + 1) / p), abs=1e-12
            )
            p += 0.5


def test_transfer_specializes_to_exponents():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        lam = float(rng.uniform(1.0, 2.0))
        reg = region(m, lam)
        if reg.empty:
            continue
        hi = reg.lower + 5.0 if math.isinf(reg.upper) else reg.upper
        p = float(rng.uniform(reg.lower * 1.001, hi))
        e = exponents(m, p, lam, strict=False)
        tp = TransferProblem(
            p_list=[p] * m, q_list=[math.inf] * m, lambda0=lam, s=e.s
        )
        result = transfer(tp)
        assert result.eta1 == pytest.approx(e.eta1, rel=1e-12)
        assert result.eta2 == pytest.approx(e.s, rel=1e-12)


def test_transfer_zero_deficiency_limit():
    eps = 1e-9
    tp = TransferProblem(
        p_list=[4.0, 4.0], q_list=[4.0 + eps, 4.0 + eps], lambda0=1.5, s=2.0
    )
    assert transfer(tp).eta1 == pytest.approx(1.5, rel=1e-6)


def test_transfer_worked_example():
    tp = TransferProblem(p_list=[4.0] * 3, q_list=[math.inf] * 3, lambda0=1.0, s=2.0)
    result = transfer(tp)
    assert result.eta1 == pytest.approx(4.0, abs=1e-12)
    assert result.eta2 == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("field, values", [("lambda0", (math.nan, 2.0)), ("s", (1.0, math.nan))])
def test_transfer_problem_rejects_a_nan_lambda0_or_s(field, values):
    # NaN passed the "< 1" checks and surfaced as a TransferHypothesisError
    # with "1/lambda0 = nan"; it is a bad input, named as such
    lambda0, s = values
    with pytest.raises(DomainError, match=f"{field} must be >= 1, got nan"):
        transfer(TransferProblem([4.0] * 3, [math.inf] * 3, lambda0=lambda0, s=s))


def test_transfer_hypothesis_errors_name_condition():
    # deficiency too large: sum(1/2) * 3 = 1.5 >= 1/1
    with pytest.raises(TransferHypothesisError, match="deficiency"):
        transfer(TransferProblem(p_list=[2.0] * 3, q_list=[math.inf] * 3, lambda0=1.0, s=100.0))
    # s below the eta2 threshold
    with pytest.raises(TransferHypothesisError, match="eta2"):
        transfer(TransferProblem(p_list=[4.0] * 3, q_list=[math.inf] * 3, lambda0=1.0, s=1.5))


def test_transfer_problem_validation():
    with pytest.raises(DomainError):
        TransferProblem(p_list=[4.0], q_list=[4.0], lambda0=1.0, s=2.0)  # p = q
    with pytest.raises(DomainError):
        TransferProblem(p_list=[0.5], q_list=[2.0], lambda0=1.0, s=2.0)  # p < 1
    with pytest.raises(DomainError):
        TransferProblem(p_list=[2.0], q_list=[4.0], lambda0=0.5, s=2.0)


def test_classical_exponents():
    res = classical_exponents(2, 4.0)
    assert res.hl_high == pytest.approx(2.0, abs=1e-12)  # 16/(8+4-4)
    assert res.hl_low == pytest.approx(2.0, abs=1e-12)   # both regimes touch at p = 2m

    res = classical_exponents(2, math.inf)
    assert res.hl_high == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert res.hl_low is None
    # oracle: the finite-p formula approaches the limit
    assert classical_exponents(2, 1e9).hl_high == pytest.approx(4.0 / 3.0, abs=1e-6)

    res = classical_exponents(2, 3.0)
    assert res.hl_high is None
    assert res.hl_low == pytest.approx(3.0, abs=1e-12)


def test_classical_domain_error():
    with pytest.raises(DomainError):
        classical_exponents(2, 2.0)
    with pytest.raises(DomainError):
        classical_exponents(3, 2.5)


@pytest.mark.parametrize("p_list, q_list", [([], []), ([2.0], [])])
def test_transfer_problem_needs_equal_nonempty_lists(p_list, q_list):
    with pytest.raises(DomainError, match="must be nonempty and of equal length"):
        TransferProblem(p_list=p_list, q_list=q_list, lambda0=1.0, s=2.0)
