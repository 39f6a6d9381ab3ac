"""Exact comparisons for certified bounds, in stdlib rational arithmetic.

Every float is read as the rational it is (`fractions.Fraction`), so no
comparison here rounds: a bound one unit in the last place below the
quantity it certifies fails.  Two quantities are covered:

* a power c * n^e at a rational exponent e = a/b (the norm of the constant
  tensor c * 1 is c * n^(m/p'), that of the diagonal n^(1 - m/p) for
  p >= m): with b >= 1, c * n^(a/b) <= x exactly when (x/c)^b >= n^a;
* the mass sum_J |c_J| of real coefficients, the norm on l_inf of a tensor
  of nonnegative ones: a sum of Fractions.
"""

from fractions import Fraction
from typing import Iterable


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
