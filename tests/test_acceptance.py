"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hlcert import (
    ScalarField,
    TrialConfig,
    certify,
    check_contraction,
    check_khinchin,
    exponents,
    generate,
    khinchin_A,
    region,
    solve_q0,
    verify_proof_chain,
)
from hlcert.certify import report_to_json
from hlcert.norms import alternating_max, exact_linf_enum

REAL = ScalarField.REAL
COMPLEX = ScalarField.COMPLEX


@contextmanager
def criterion(number: int, name: str, runtime_cap: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < runtime_cap, f"criterion {number} took {elapsed:.2f}s >= {runtime_cap}s"
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s")


def test_criterion_1_khinchin_constants():
    with criterion(1, "Khinchin constants", 1.0):
        assert abs(khinchin_A(2.0, REAL).value - 1.0) <= 1e-12
        assert abs(khinchin_A(2.0, COMPLEX).value - 1.0) <= 1e-12
        assert abs(khinchin_A(1.0, REAL).value - 2.0**-0.5) <= 1e-12
        assert abs(khinchin_A(1.0, COMPLEX).value - math.gamma(1.5)) <= 1e-12
        q0 = solve_q0()
        assert 1.84 < q0 < 1.85
        low = 2.0 ** (0.5 - 1.0 / q0)
        high = math.sqrt(2.0) * (math.gamma((1.0 + q0) / 2.0) / math.sqrt(math.pi)) ** (1.0 / q0)
        assert abs(low - high) <= 1e-9


def test_criterion_2_lambda1_recovery():
    with criterion(2, "lambda0=1 recovery", 1.0):
        for m in range(3, 8):
            p = m + 0.5
            while p <= 2 * m - 2 + 1e-9:
                e = exponents(m, p, 1.0, REAL)
                assert abs(e.s - p / (p - m + 1)) <= 1e-12
                assert abs(e.eta1 - p / (p - m)) <= 1e-12
                assert abs(e.constant - 2.0 ** ((m - 1) * (p - m + 1) / p)) <= 1e-12
                p += 0.5


def test_criterion_3_region_criterion():
    with criterion(3, "region criterion", 1.0):
        for m in range(2, 9):
            for i in range(101):
                lam = 1.0 + i / 100.0
                assert (not region(m, lam).empty) == (lam * m > 2.0)
        rng = np.random.default_rng(20240601)
        mismatches = 0
        for _ in range(1000):
            m = int(rng.integers(2, 8))
            lam = float(rng.uniform(1.0, 1.999))
            upper = 2.0 * lam * (m - 1) / (2.0 - lam)
            p = float(lam * (m - 1) + 0.05 + rng.uniform(0.0, 3.0 * upper))
            if p == lam * m:
                continue
            e = exponents(m, p, lam, strict=False)
            if (e.s >= 2.0) != (p <= upper):
                mismatches += 1
        assert mismatches == 0


def test_criterion_4_khinchin_enumeration():
    with criterion(4, "exact Khinchin enumeration", 30.0):
        rng = np.random.default_rng(99)
        q0 = solve_q0()
        qs = (1.0, 1.3, q0, 1.9, 2.0)
        for _ in range(500):
            n = int(rng.integers(1, 13))
            a = rng.standard_normal(n)
            for q in qs:
                rep = check_khinchin(a, q, REAL)
                assert rep.ratio >= 1.0 - 1e-12
                if q == 2.0:
                    assert rep.ratio <= 1.0 + 1e-9
        rep = check_khinchin([1.0, 1.0], 1.0, REAL)
        assert rep.ratio <= 1.0 + 1e-9


def test_criterion_5_contraction_lemma():
    with criterion(5, "contraction lemma", 60.0):
        rng = np.random.default_rng(4242)
        count = 0
        shapes = [(1, 8), (2, 4), (3, 3)]
        while count < 200:
            m, N = shapes[count % len(shapes)]
            arr = rng.standard_normal((N,) * m)
            for t in (1.0, 2.0, 3.0):
                rep = check_contraction(arr, t)
                assert rep.passed
            count += 1


def test_criterion_6_proof_chain():
    with criterion(6, "proof chain", 120.0):
        rng = np.random.default_rng(777)
        # s comes from the exponent formulas at the admissible-region
        # midpoint; the (m=2, lambda0=1) window is empty, so its boundary
        # value s = 2 (the limit of s at the closed upper end) is used
        configs = []
        for m, n, lam in [(2, 4, 1.0), (2, 4, 1.5), (3, 3, 1.0), (3, 3, 1.5)]:
            reg = region(m, lam)
            if reg.empty:
                s = 2.0
            else:
                s = exponents(m, (reg.lower + reg.upper) / 2.0, lam, REAL).s
            configs.append((m, n, lam, s))
        for m, n, lam, s in configs:
            for _ in range(25):
                S = generate("gaussian", m, n, REAL, int(rng.integers(2**32)))
                rep = verify_proof_chain(S, lam, s)
                assert rep.passed
                for link in rep.links:
                    if link.kind == "inequality":
                        assert link.slack >= -1e-12


def test_criterion_7_norm_oracle_agreement():
    with criterion(7, "norm oracle agreement", 30.0):
        rng = np.random.default_rng(31337)
        agree = 0
        for _ in range(100):
            n = int(rng.integers(2, 4))
            T = generate("gaussian", 2, n, REAL, int(rng.integers(2**32)))
            exact = exact_linf_enum(T).lower
            est = alternating_max(T, math.inf, restarts=50, seed=int(rng.integers(2**32)))
            assert est.lower <= exact + 1e-12
            if abs(est.lower - exact) <= 1e-9 * max(1.0, exact):
                agree += 1
        assert agree >= 95


SEED_E2E = 20240601


def test_criterion_8_end_to_end():
    with criterion(8, "end-to-end certification", 30.0):
        cfg = TrialConfig(trials=1000, restarts=8)
        for lam in (1.0, 1.2):
            for n in (2, 3):
                report = certify(3, n, 4.0, lam, REAL, config=cfg, seed=SEED_E2E)
                assert report.violations == 0, (
                    f"violations at (m=3, n={n}, p=4, lambda0={lam})"
                )
        # real l_inf forms: the exact-norm path never leaves a gap
        report = certify(2, 3, math.inf, 2.0, REAL, config=cfg, seed=SEED_E2E)
        assert report.extrapolated  # lambda0 = 2 window is the flagged limit
        assert report.violations == 0
        assert report.inconclusive == 0


def test_criterion_9_determinism():
    with criterion(9, "byte-identical reports", 300.0):
        cfg = TrialConfig(trials=1000, restarts=8)
        a = report_to_json(certify(3, 2, 4.0, 1.0, REAL, config=cfg, seed=SEED_E2E))
        b = report_to_json(certify(3, 2, 4.0, 1.0, REAL, config=cfg, seed=SEED_E2E))
        assert a == b
        c = report_to_json(certify(2, 3, math.inf, 2.0, REAL, config=cfg, seed=SEED_E2E))
        d = report_to_json(certify(2, 3, math.inf, 2.0, REAL, config=cfg, seed=SEED_E2E))
        assert c == d
