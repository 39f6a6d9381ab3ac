"""The optimal lower Khinchin constants and the scalar field they are taken over.

Gamma values come from `math.gamma`: every argument here lies in [1, 2].
The real-scalar constant switches branch at a crossover point q0 in (1, 2),
the unique root below 2 of Gamma((q+1)/2) = sqrt(pi)/2.  Below q0 the
constant is 2^(1/2 - 1/q); above it the gamma expression takes over, and the
two branches agree at q0 by the defining equation.  Complex scalars use the
Steinhaus constant Gamma((q+2)/2)^(1/q), which dominates the real one on the
whole interval [1, 2].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError

__all__ = [
    "ScalarField",
    "Branch",
    "KhinchinConstant",
    "solve_q0",
    "khinchin_A",
]


class ScalarField(enum.Enum):
    """Scalar field carried by constants and coefficient tensors."""

    REAL = "real"
    COMPLEX = "complex"

    @classmethod
    def parse(cls, text: str) -> "ScalarField":
        try:
            return cls(text.strip().lower())
        except (AttributeError, ValueError):   # AttributeError: not a string
            raise DomainError(f"unknown scalar field {text!r}; use 'real' or 'complex'") from None


def _check_field(field) -> None:
    """The one field rule: DomainError unless field is a ScalarField.

    A string such as 'complex' would otherwise run as the real field, since
    every branch tests `field is ScalarField.COMPLEX`; text goes through
    `ScalarField.parse` first.
    """
    if not isinstance(field, ScalarField):
        raise DomainError(
            f"field must be a ScalarField, got {field!r}; ScalarField.parse reads text"
        )


class Branch(enum.Enum):
    """Which closed form produced a Khinchin constant."""

    REAL_LOW = "real_low"    # 2^(1/2 - 1/q), q <= q0
    REAL_HIGH = "real_high"  # sqrt(2) * (Gamma((1+q)/2)/sqrt(pi))^(1/q), q > q0
    COMPLEX = "complex"      # Gamma((q+2)/2)^(1/q)


@dataclass(frozen=True)
class KhinchinConstant:
    """Optimal lower Khinchin constant A_q for one exponent and field."""

    q: float
    field: ScalarField
    value: float
    branch: Branch


_SQRT_PI_HALF = math.sqrt(math.pi) / 2.0


@lru_cache(maxsize=1)
def solve_q0() -> float:
    """Crossover exponent q0: the root of Gamma((q+1)/2) = sqrt(pi)/2 in (1, 2).

    q = 2 also satisfies the equation (Gamma(3/2) = sqrt(pi)/2), so the
    bisection bracket stops at 1.95 to keep a strict sign change around the
    interior root near 1.847.  Deterministic: bisects to 1e-13 bracket width.
    """
    def f(q: float) -> float:
        return math.gamma((q + 1.0) / 2.0) - _SQRT_PI_HALF

    lo, hi = 1.0, 1.95
    # f(lo) > 0 > f(hi); keep the invariant while halving
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def khinchin_A(q: float, field: ScalarField) -> KhinchinConstant:
    """Optimal lower Khinchin constant A_q for q in [1, 2].

    Real scalars: 2^(1/2 - 1/q) up to the crossover q0, the gamma branch
    sqrt(2)*(Gamma((1+q)/2)/sqrt(pi))^(1/q) beyond it (the branches agree at
    q0, where the low branch is returned).  Complex scalars (Steinhaus):
    Gamma((q+2)/2)^(1/q).  A field that is not a ScalarField raises
    DomainError (`_check_field`).
    """
    _check_field(field)
    if not (1.0 <= q <= 2.0):
        raise DomainError(f"khinchin_A supported on q in [1, 2], got {q}")
    if field is ScalarField.COMPLEX:
        value = math.gamma((q + 2.0) / 2.0) ** (1.0 / q)
        return KhinchinConstant(q=q, field=field, value=value, branch=Branch.COMPLEX)
    if q <= solve_q0():
        value = 2.0 ** (0.5 - 1.0 / q)
        return KhinchinConstant(q=q, field=field, value=value, branch=Branch.REAL_LOW)
    if q == 2.0:   # A_2 = 1 exactly (Gamma(3/2) = sqrt(pi)/2); the formula rounds above it
        value = 1.0
    else:
        value = math.sqrt(2.0) * (math.gamma((1.0 + q) / 2.0) / math.sqrt(math.pi)) ** (1.0 / q)
    return KhinchinConstant(q=q, field=field, value=value, branch=Branch.REAL_HIGH)
