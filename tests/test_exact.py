"""Certified bounds against exact norms, by the rational oracle of `exact.py`.

Each stage 1 tensor here has a norm known in closed form: the constant
tensor c * 1 is rank one, so ||c * 1|| = c * n^(m/p'); a tensor of
nonnegative entries has ||T|| = its mass on l_inf; and the diagonal D_n has
||D_n|| = n^(1 - m/p) for p >= m (the generalized Hoelder inequality).
A real tensor's l_inf norm is enumerated exactly over its sign vertices,
and sigma, the l_2 factor of the interpolation bound, is checked by an
exact positive-semidefiniteness test.  A certified upper bound must be at
least the quantity it bounds, exactly, and not only within a tolerance:
the float Hoelder bound and the float sign enumeration fell below it in
the last bits.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from exact import gram_gap_is_psd, is_psd, linf_norm, mass, mass_at_most, power_at_most
from hlcert import FormTensor, ScalarField, TrialConfig, certify, generate, verify_proof_chain
from hlcert.norms import _RESTARTS, _best_restarts, _interpolation_bounds, _linf_bounds, exact_linf_enum
from hlcert.tensor import _unit_roots

CONSTANT_SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (2, 5)]
CONSTANT_PS = [1.5, 2.5, 3.0, 4.0, 4.5, 5.0, 7.0, 10.0]
# the last two are subnormal: a bound multiplied back to them rounds to nearest
CONSTANTS = [1.0, 3.0, 0.7, 1.1, 2.0**-3, 2.0**-1073, 3 * 2.0**-1074]


def _diagonal(m, n):
    D = np.zeros((n,) * m)
    D[(np.arange(n),) * m] = 1.0
    return D


def test_the_oracle_is_exact():
    # one unit in the last place either way decides the comparison
    root = math.sqrt(2.0)   # 1.4142135623730951, above sqrt(2); the float below it is under
    assert power_at_most(2, Fraction(1, 2), root)
    assert not power_at_most(2, Fraction(1, 2), math.nextafter(root, 0.0))
    assert power_at_most(8, Fraction(1, 3), 2.0) and not power_at_most(8, Fraction(1, 3), 2.0, 1.5)
    values = [0.1] * 10   # the float sum is 0.9999999999999999, the exact mass above 1
    assert mass(values) > 1 and not mass_at_most(values, sum(values))
    assert mass_at_most([0.5, -0.25], 0.75) and not mass_at_most([0.5, -0.25], 0.7499999999999999)
    # ||[[1, 1], [1, -1]]|| = 2 on l_inf; a rank-one sign tensor's norm is its mass
    assert linf_norm(np.array([[1.0, 1.0], [1.0, -1.0]])) == 2
    outer = np.einsum("a,b,c->abc", [0.1, -0.3, 0.7], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0])
    assert linf_norm(outer) == mass(outer.ravel())
    assert linf_norm(np.array([0.1] * 10)) == mass([0.1] * 10)
    # sigma([1, 1]) = sqrt(2); complex A = [1, i] has A A^H = 2 as well
    for A in (np.array([[1.0, 1.0]]), np.array([[1.0, 1j]])):
        assert gram_gap_is_psd(A, root) and not gram_gap_is_psd(A, math.nextafter(root, 0.0))
    assert is_psd([[1, 1], [1, 1]]) and not is_psd([[0, 1], [1, 0]]) and not is_psd([[1, 2], [2, 1]])


@pytest.mark.parametrize("m, n", CONSTANT_SHAPES)
def test_stage_1_holds_the_norm_of_a_constant_tensor(m, n):
    # ||c * 1|| = c * n^(m/p'), p' = p/(p-1), so m/p' = m (p-1)/p exactly
    stack = np.stack([np.full((n,) * m, c) for c in CONSTANTS])
    for p in CONSTANT_PS:
        bounds = _interpolation_bounds(stack, p)
        e = m * (Fraction(p) - 1) / Fraction(p)
        below = [c for c, bound in zip(CONSTANTS, bounds) if not power_at_most(n, e, bound, c)]
        assert below == [], (m, n, p)


def test_subnormal_complex_l_inf_bounds_hold_the_norm():
    # ||c * 1|| = |c| n^m on l_inf: c = (1 + i) 2^-1073 on (2, 2) gives
    # sqrt(2) 2^-1071, 11.3 times the smallest float, where a bound
    # multiplied back to the nearest float reads 11
    stack = np.full((1, 2, 2), (1 + 1j) * 2.0**-1073)
    uppers = [_interpolation_bounds(stack, math.inf)[0], _linf_bounds(stack, _unit_roots(12))[1][0]]
    assert [power_at_most(2, Fraction(1, 2), upper, 2.0**-1071) for upper in uppers] == [True, True]


def test_stage_1_holds_the_mass_of_nonnegative_complex_tensors():
    # at p = inf a tensor of nonnegative entries has ||T|| = its mass, which
    # the float sum can fall below
    rng = np.random.default_rng(2024)
    stack = rng.random((2000, 3, 3, 3)) + 0j
    bounds = _interpolation_bounds(stack, math.inf)
    flat = stack.real.reshape(len(stack), -1)
    below = [b for b in range(len(stack)) if not mass_at_most(flat[b], bounds[b])]
    assert below == []


@pytest.mark.parametrize("m, n, p", [(3, 8, 4.0), (4, 5, 4.5), (2, 16, 3.0)])
def test_the_diagonal_norm_is_sandwiched(m, n, p):
    # ||D_n|| = n^(1 - m/p), attained at the constant unit vectors.  The
    # ascent stops a restart once a sweep gains at most 1e-10 of its value,
    # which leaves it 5e-12 to 7e-11 below the norm here
    norm = n ** (1.0 - m / p)
    lower, upper = _best_restarts(_diagonal(m, n)[None], p, _RESTARTS, [m])[:2]
    assert lower[0] == pytest.approx(norm, rel=1e-9)
    assert power_at_most(n, 1 - Fraction(m) / Fraction(p), upper[0])


def _linf_shapes():
    # the 300 (3, 3) Gaussians where the float sign enumeration, taken as
    # the upper bound, fell below the exact norm for 163; two other shapes
    rng = np.random.default_rng(300)
    return [
        [generate("gaussian", m, n, ScalarField.REAL, int(rng.integers(2**32))).coeffs
         for _ in range(count)]
        for m, n, count in [(3, 3, 300), (2, 5, 40), (4, 2, 40)]
    ]


def test_real_linf_upper_bounds_hold_the_exact_norm():
    # exact_linf_enum's upper bound and a real chain's norm_upper, also at
    # 2^-600 and 2^600 times the first 20 tensors of each shape
    below = []
    for stack in _linf_shapes():
        for b, C in enumerate(stack):
            norm = linf_norm(C)
            for k in (0, -600, 600) if b < 20 else (0,):
                scale = Fraction(2) ** k
                T = FormTensor(m=C.ndim, n=C.shape[0], field=ScalarField.REAL,
                               coeffs=np.ldexp(C, k))
                chain = verify_proof_chain(T, 1.5, 2.5)
                for name, upper in [("exact_linf_enum", exact_linf_enum(T).upper),
                                    ("chain", chain.norm_upper)]:
                    if Fraction(upper) < norm * scale:
                        below.append((C.shape, b, k, name))
    assert below == []


@pytest.mark.parametrize("m, n", [(3, 3), (2, 5), (4, 2)])
def test_real_linf_certify_upper_bounds_hold_the_exact_norm(m, n):
    # every trial of a real p = inf run, its tensor drawn again from the
    # trial's stream
    cfg = TrialConfig(trials=300 if m == 3 else 40, kinds=("gaussian",), keep_trials=True)
    report = certify(m, n, math.inf, 2.0, ScalarField.REAL, config=cfg, seed=300)
    below = []
    for row in report.trial_rows:
        gen_ss = np.random.SeedSequence([300, row.index]).spawn(2)[0]
        T = generate(row.kind, m, n, ScalarField.REAL, gen_ss)
        if Fraction(row.upper) < linf_norm(T.coeffs):
            below.append(row.index)
    assert below == []


def _flattening(T, k):
    return np.moveaxis(T, k, 0).reshape(T.shape[0], -1)


def test_sigma_bound_holds_an_exact_psd_test():
    # at p = 2 the stage 1 bound is min(Hoelder, sigma), each rounded
    # outward; bound^2 I - A_k A_k^H must be positive semidefinite for some
    # slot k (for every slot where the Hoelder bound ||A||_F is the smaller).
    # Rank-one tensors have sigma = ||A||_F, where the two bounds tie.
    # Without the margins of `_interpolation_bounds` (_MU_MARGIN = 0, no
    # Gram rounding terms, _ROUND_UP = 1), 7 of these 600 bounds fail
    rng = np.random.default_rng(400)
    real = rng.standard_normal((300, 3, 3, 3))
    complex_ = rng.standard_normal((100, 3, 3, 3)) + 1j * rng.standard_normal((100, 3, 3, 3))
    rank_one = np.einsum("ba,bc,bd->bacd", *(rng.standard_normal((200, 3)) for _ in range(3)))
    failed = []
    for stack in (real, complex_, rank_one):
        for b, (T, bound) in enumerate(zip(stack, _interpolation_bounds(stack, 2.0))):
            if not any(gram_gap_is_psd(_flattening(T, k), bound) for k in range(T.ndim)):
                failed.append((stack.dtype.kind, len(stack), b))
    assert failed == []
