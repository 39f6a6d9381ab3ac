"""Certified stage 1 bounds against exact norms, by the rational oracle of `exact.py`.

Each tensor here has a norm known in closed form: the constant tensor
c * 1 is rank one, so ||c * 1|| = c * n^(m/p'); a tensor of nonnegative
entries has ||T|| = its mass on l_inf; and the diagonal D_n has
||D_n|| = n^(1 - m/p) for p >= m (the generalized Hoelder inequality).
A certified upper bound must be at least that norm, exactly, and not only
within a tolerance: the float Hoelder bound fell below it in the last bits.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from exact import mass, mass_at_most, power_at_most
from hlcert.norms import _RESTARTS, _best_restarts, _interpolation_bounds

CONSTANT_SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (2, 5)]
CONSTANT_PS = [2.5, 3.0, 4.0, 4.5, 5.0, 7.0, 10.0]
CONSTANTS = [1.0, 3.0, 0.7, 1.1, 2.0**-3]


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


@pytest.mark.parametrize("m, n", CONSTANT_SHAPES)
def test_stage_1_holds_the_norm_of_a_constant_tensor(m, n):
    # ||c * 1|| = c * n^(m/p'), p' = p/(p-1), so m/p' = m (p-1)/p exactly
    stack = np.stack([np.full((n,) * m, c) for c in CONSTANTS])
    for p in CONSTANT_PS:
        bounds = _interpolation_bounds(stack, p)
        e = m * (Fraction(p) - 1) / Fraction(p)
        below = [c for c, bound in zip(CONSTANTS, bounds) if not power_at_most(n, e, bound, c)]
        assert below == [], (m, n, p)


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
