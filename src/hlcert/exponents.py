"""Exponent formulas, admissibility regions, and the exponent-transfer rule.

Everything here is closed-form arithmetic on (m, p, lambda0).  p may be
math.inf; all formulas are evaluated through 1/p so the infinite case is the
exact algebraic limit rather than a special approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DomainError, SingularExponentError, TransferHypothesisError, _check_integer
from .special import ScalarField, khinchin_A

__all__ = [
    "Region",
    "ExponentSet",
    "TransferProblem",
    "TransferResult",
    "ClassicalExponents",
    "region",
    "exponents",
    "transfer",
    "classical_exponents",
]


def _inv(p: float) -> float:
    # 1/p with the p = inf sentinel mapped to 0
    return 0.0 if math.isinf(p) else 1.0 / p


@dataclass(frozen=True)
class Region:
    """Admissible p-interval (lower, upper] for one (m, lambda0)."""

    m: int
    lambda0: float
    lower: float
    upper: float  # math.inf at lambda0 = 2

    @property
    def empty(self) -> bool:
        return self.lower >= self.upper

    def contains(self, p: float) -> bool:
        return self.lower < p <= self.upper


def region(m: int, lambda0: float) -> Region:
    """Admissible window lambda0*m < p <= 2*lambda0*(m-1)/(2-lambda0).

    The upper endpoint diverges as lambda0 -> 2; at lambda0 = 2 exactly the
    window is reported as (2m, inf], tagged extrapolated downstream.  The
    window is nonempty iff lambda0*m > 2.
    """
    _check_integer("m", m, 2)
    _check_lambda0(lambda0)
    lower = lambda0 * m
    if lambda0 == 2.0:
        upper = math.inf
    else:
        upper = 2.0 * lambda0 * (m - 1) / (2.0 - lambda0)
    return Region(m=m, lambda0=lambda0, lower=lower, upper=upper)


@dataclass(frozen=True)
class ExponentSet:
    """Derived exponents and constant for one (m, p, lambda0, field).

    When admissible: s = lambda0*p/(p - lambda0*m + lambda0) >= 2,
    eta1 = lambda0*p/(p - lambda0*m) > s, and
    constant = A_{lambda0}^(-2(m-1)/s) >= 1.
    Inadmissible parameter triples still report whatever is well defined
    (admissible=False) so sweeps can tabulate the boundary; NaN marks pieces
    with non-positive denominators in non-strict mode.
    """

    m: int
    p: float
    lambda0: float
    field: ScalarField
    s: float
    eta1: float
    constant: float
    admissible: bool
    extrapolated: bool = False  # lambda0 = 2 limit region, not in the proven window


def exponents(
    m: int,
    p: float,
    lambda0: float,
    field: ScalarField = ScalarField.REAL,
    strict: bool = True,
) -> ExponentSet:
    """Compute s, eta1, the constant, and the admissibility flag.

    Raises SingularExponentError at p = lambda0*m (eta1 undefined) and at
    p = lambda0*(m-1) (s undefined).  With strict=False the singular pieces
    come back as NaN instead, which is what sweep tabulation wants.
    """
    _check_integer("m", m, 2)
    _check_lambda0(lambda0)
    if not (p > 0.0):
        raise DomainError(f"p must be positive or inf, got {p}")
    inv_p = _inv(p)
    s_den = 1.0 - lambda0 * (m - 1) * inv_p
    eta1_den = 1.0 - lambda0 * m * inv_p
    if s_den == 0.0:
        if strict:
            raise SingularExponentError(f"s undefined at p = lambda0*(m-1) = {p}")
        s = math.nan
    else:
        s = lambda0 / s_den
    if eta1_den == 0.0:
        if strict:
            raise SingularExponentError(f"eta1 undefined at p = lambda0*m = {p}")
        eta1 = math.nan
    else:
        eta1 = lambda0 / eta1_den

    reg = region(m, lambda0)
    admissible = reg.contains(p)
    A = khinchin_A(lambda0, field).value
    constant = A ** (-2.0 * (m - 1) / s) if (s == s and s != 0.0) else math.nan
    return ExponentSet(
        m=m,
        p=p,
        lambda0=lambda0,
        field=field,
        s=s,
        eta1=eta1,
        constant=constant,
        admissible=admissible,
        extrapolated=bool(admissible and lambda0 == 2.0),
    )


@dataclass(frozen=True)
class TransferProblem:
    """Inputs of the exponent-transfer rule: 1 <= p_k < q_k <= inf, lambda0, s >= 1."""

    p_list: Sequence[float]
    q_list: Sequence[float]
    lambda0: float
    s: float

    def __post_init__(self) -> None:
        if len(self.p_list) != len(self.q_list) or not self.p_list:
            raise DomainError("p_list and q_list must be nonempty and of equal length")
        for k, (pk, qk) in enumerate(zip(self.p_list, self.q_list), start=1):
            if not (1.0 <= pk < qk):
                raise DomainError(f"need 1 <= p_{k} < q_{k} <= inf, got p={pk}, q={qk}")
        # written so that NaN fails too
        if not self.lambda0 >= 1.0:
            raise DomainError(f"lambda0 must be >= 1, got {self.lambda0}")
        if not self.s >= 1.0:
            raise DomainError(f"s must be >= 1, got {self.s}")

    @property
    def m(self) -> int:
        return len(self.p_list)

    def deficiency(self, count: Optional[int] = None) -> float:
        """Sum of 1/p_j - 1/q_j over the first `count` slots (all by default)."""
        count = self.m if count is None else count
        return sum(_inv(p) - _inv(q) for p, q in zip(self.p_list[:count], self.q_list[:count]))


@dataclass(frozen=True)
class TransferResult:
    eta1: float
    eta2: float          # diagnostic: the s-threshold from the first m-1 slots
    deficiency: float    # full deficiency sum, must stay below 1/lambda0


_TRANSFER_GRACE = 1e-12  # relative slop so exact-boundary inputs don't fail by one ulp


def transfer(tp: TransferProblem) -> TransferResult:
    """Exponent transfer: eta1 = [1/lambda0 - sum_j (1/p_j - 1/q_j)]^(-1).

    Hypotheses checked: the full deficiency sum stays below 1/lambda0, and
    s >= eta2 where eta2 uses the first m-1 slots only.  A failure raises
    TransferHypothesisError naming the violated condition(s).  Boundary cases
    (s equal to eta2 up to rounding) are accepted.
    """
    full = tp.deficiency()
    partial = tp.deficiency(tp.m - 1)
    inv_l = 1.0 / tp.lambda0
    failures = []
    if not (full < inv_l + _TRANSFER_GRACE * max(1.0, inv_l)):
        failures.append(
            f"deficiency sum {full:.6g} must be < 1/lambda0 = {inv_l:.6g}"
        )
    eta2 = math.inf if partial >= inv_l else 1.0 / (inv_l - partial)
    s_floor = eta2 - _TRANSFER_GRACE * max(1.0, eta2) if math.isfinite(eta2) else eta2
    if not (tp.s >= s_floor):
        failures.append(f"s = {tp.s:.6g} must be >= eta2 = {eta2:.6g}")
    if failures:
        raise TransferHypothesisError("; ".join(failures))
    denom = inv_l - full
    eta1 = math.inf if denom <= 0.0 else 1.0 / denom
    return TransferResult(eta1=eta1, eta2=eta2, deficiency=full)


@dataclass(frozen=True)
class ClassicalExponents:
    """Summability exponents of the two classical p-regimes (None outside regime)."""

    m: int
    p: float
    hl_high: Optional[float]  # 2mp/(mp + p - 2m), valid for 2m <= p <= inf
    hl_low: Optional[float]   # p/(p - m), valid for m < p <= 2m


def classical_exponents(m: int, p: float) -> ClassicalExponents:
    """Exponents of the classical inequalities for m-linear forms on l_p.

    p = inf returns the m-linear limit exponent 2m/(m+1).  At p = 2m both
    regimes apply and both formulas give the same value 2.
    """
    _check_integer("m", m, 2)
    if not (p > m):
        raise DomainError(f"classical exponents need p > m, got p={p}, m={m}")
    hl_high = None
    hl_low = None
    if p >= 2 * m:
        if math.isinf(p):
            hl_high = 2.0 * m / (m + 1)
        else:
            hl_high = 2.0 * m * p / (m * p + p - 2.0 * m)
    if p <= 2 * m:
        hl_low = p / (p - m)
    return ClassicalExponents(m=m, p=p, hl_high=hl_high, hl_low=hl_low)


def _check_lambda0(lambda0: float) -> None:
    """The one lambda0 rule, here and in `hlcert.chaos`: DomainError unless 1 <= lambda0 <= 2."""
    if not (1.0 <= lambda0 <= 2.0):
        raise DomainError(f"lambda0 must lie in [1, 2], got {lambda0}")
