"""Exact comparisons for certified bounds, in stdlib rational arithmetic.

Every float is read as the rational it is (`fractions.Fraction`), so no
comparison here rounds: a bound one unit in the last place below the
quantity it certifies fails.  Four quantities are covered:

* a power c * n^e at a rational exponent e = a/b (the norm of the constant
  tensor c * 1 is c * n^(m/p'), that of the diagonal n^(1 - m/p) for
  p >= m): with b >= 1, c * n^(a/b) <= x exactly when (x/c)^b >= n^a;
* the mass sum_J |c_J| of real coefficients, the norm on l_inf of a tensor
  of nonnegative ones: a sum of Fractions;
* the norm on (l_inf^n)^m of a real tensor, by its sign vertices;
* whether bound^2 I - A A^H is positive semidefinite, so bound >= the
  largest singular value of A, by an LDL^T factorization.

The last two work on integers: every finite float is an integer multiple
of 2^-1074, so its `_integer` is exact, and sums and products of integers
are exact and fast.
"""

import itertools
import math
from fractions import Fraction
from typing import Iterable, List

import numpy as np

_ULP = 1074   # every finite float is an integer times 2^-1074


def power_at_most(n: int, e: Fraction, bound: float, scale: float = 1.0) -> bool:
    """Whether scale * n^e <= bound exactly, for an integer n >= 1, scale > 0 and bound >= 0."""
    a, b = e.numerator, e.denominator
    return (Fraction(bound) / Fraction(scale)) ** b >= Fraction(n) ** a


def mass(values: Iterable[float]) -> Fraction:
    """sum |v| over real floats, exactly."""
    return sum((abs(Fraction(float(v))) for v in values), Fraction(0))


def mass_at_most(values: Iterable[float], bound: float) -> bool:
    """Whether the exact mass of `values` is at most `bound`."""
    return mass(values) <= Fraction(bound)


def _integer(x: float) -> int:
    """x * 2^1074, exactly, for a finite float x."""
    return int(Fraction(float(x)) * 2**_ULP)


def linf_norm(coeffs: np.ndarray) -> Fraction:
    """The exact norm on (l_inf^n)^m of a real tensor of shape (n,)*m.

    The ball's extreme points are sign vectors and flipping one slot's
    signs flips the sign of T, so slots 2..m range over the sign vectors
    with first entry +1, 2^((n-1)(m-1)) patterns, and slot 1 is closed by
    the l_1 sum: max over patterns of sum_j |T(e_j, eps_2, ..., eps_m)|.
    """
    arr = np.asarray(coeffs, dtype=np.float64)
    m, n = arr.ndim, arr.shape[0]
    rows = [[_integer(c) for c in row] for row in arr.reshape(n, -1).tolist()]
    best = 0
    for pattern in itertools.product((1, -1), repeat=(n - 1) * (m - 1)):
        slots = [(1,) + pattern[i * (n - 1) : (i + 1) * (n - 1)] for i in range(m - 1)]
        # the trailing index runs slot m fastest, as the row-major rows do
        weights = [math.prod(w) for w in itertools.product(*slots)]
        value = sum(abs(sum(w * c for w, c in zip(weights, row))) for row in rows)
        best = max(best, value)
    return Fraction(best, 2**_ULP)


def gram_gap_is_psd(A: np.ndarray, bound: float) -> bool:
    """Whether bound^2 I - A A^H is positive semidefinite, exactly, for an (n, N) matrix A.

    A complex A enters through its real embedding [[Re, -Im], [Im, Re]],
    whose Gram matrix is the real embedding of A A^H, positive semidefinite
    exactly when the Hermitian one is.
    """
    A = np.asarray(A)
    if np.iscomplexobj(A):
        A = np.block([[A.real, -A.imag], [A.imag, A.real]])
    rows = [[_integer(a) for a in row] for row in A.tolist()]
    b2 = _integer(bound) ** 2
    size = len(rows)
    gap = [
        [(b2 if i == j else 0) - sum(x * y for x, y in zip(rows[i], rows[j])) for j in range(size)]
        for i in range(size)
    ]
    return is_psd(gap)


def is_psd(matrix: List[List[int]]) -> bool:
    """Whether a symmetric matrix of integers or Fractions is positive semidefinite, exactly.

    LDL^T elimination without pivoting: a negative pivot fails, and a zero
    pivot passes only with a zero rest of its row (else a 2 x 2 principal
    minor is negative).
    """
    M = [[Fraction(x) for x in row] for row in matrix]
    size = len(M)
    for i in range(size):
        d = M[i][i]
        if d < 0 or (d == 0 and any(M[i][j] != 0 for j in range(i + 1, size))):
            return False
        if d == 0:
            continue
        for j in range(i + 1, size):
            f = M[j][i] / d
            for k in range(i + 1, size):
                M[j][k] -= f * M[i][k]
    return True
