"""Rademacher/Steinhaus chaos moments and the inequality checks built on them.

Integrals of Rademacher chaoses over [0,1]^k are uniform averages over sign
patterns, so every real-field quantity here is computed exactly by
enumeration through `sign_slices` (budgets permitting), over the patterns
whose first sign in each slot is +1: flipping a whole slot negates the
chaos, so the rest repeat their |chaos|.  Steinhaus quantities have no
finite extreme-point set and are estimated by Monte Carlo with reported
standard errors; checks on those are 3-sigma soft checks, never hard
asserts.  Both feed one accumulation loop, `_chaos_stats`, the source of
every chaos L_q norm here, and differ only
in where its blocks of chaos slices come from: `sign_slices` yields the
sign patterns, `_steinhaus_slices` draws
MC_BLOCK = 4096 samples of uniforms per block, makes each a phase by the
half-angle form z = ((1 - t^2) + 2i*t) / (1 + t^2) with t = tan(pi*u)
(within 2.7e-16 of exp(2*pi*i*u)) and closes the last slot of a block with
one GEMM.  The loop takes row and column sums as products with ones vectors.

The proof chain, `verify_proof_chain`, checks the paper's steps in order.
Its multiple-Khinchin link is the one place the iterated Khinchin bound is
checked: the real chain compares every first-index slice against its own
R_j, the column norms of the same pass that gives ||S||, and reports the
worst slice; the complex chain checks the l_lambda0 sum over the slices.

Seeds follow one rule, `hlcert.errors._check_seed`, at every entry point
(here `steinhaus_moment`, `check_khinchin` and `verify_proof_chain`; in
`hlcert.certify` `certify`, `search_extremal` and `sweep_lambda0`): a seed
is an integer in [0, 2^32), anything else raises DomainError.  The
Monte-Carlo samples come from SeedSequence([seed, 0]), so results are
reproducible per (parameters, seed).  The complex chain bounds ||S|| on
l_inf by `_linf_root_bounds` at K = `hlcert.norms._root_count(m, n)`; only
where no K fits does it fall back to an ascent, from SeedSequence([seed, 1]),
and the coefficient mass.

Both sides of every inequality checked here are 1-homogeneous in the
coefficients, so the checks run on the input divided by the power of two
nearest its largest coefficient (an exact scaling) and scale the reported
values back: nothing overflows or underflows, and the absolute slacks are
relative to the largest coefficient.  The moments `rademacher_moment` and
`steinhaus_moment` follow the same rule.  Every power sum of |chaos|^q is
scaled by its running largest term, the rule of the mixed norms
(`hlcert.tensor._scaled_power_sums`), so every moment and check is finite
at every exponent q >= 1.  The chain computes no mixed sum of its own: its
left-hand side is `hlcert.tensor.mixed_norm`, the value `verify` scores,
finite at every s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from .errors import DomainError, ViolationError, _check_integer, _check_seed, _jsonable
from .exponents import _check_lambda0
from .norms import _check_multilinear, _linf_root_bounds, _root_count, alternating_max
# exact_linf_enum and crude_upper are tracer shims: bench/tracer.py wraps them here
from .norms import crude_upper, exact_linf_enum  # noqa: F401
from .special import ScalarField, khinchin_A
from .tensor import (
    _SMALLEST,
    FormTensor,
    _scaled_power_sums,
    _unit_scaled,
    mixed_norm,
    # kept as module attributes: bench/tracer.py wraps them here
    contract_trailing_signs,  # noqa: F401
    iter_sign_blocks,  # noqa: F401
    sign_slices,
)

__all__ = [
    "ChaosMoment",
    "KhinchinReport",
    "ContractionReport",
    "ChainLink",
    "ChainReport",
    "rademacher_moment",
    "steinhaus_moment",
    "check_khinchin",
    "check_contraction",
    "verify_proof_chain",
]

EXACT_SLACK = 1e-12       # absolute slack on exactly-enumerated inequalities
EQUALITY_RTOL = 1e-10     # relative tolerance on chain equality links
MC_SLACK = 1e-9           # absolute widening added to 3-sigma soft checks
MC_BLOCK = 4096           # Monte-Carlo samples drawn per numpy batch
MC_SAMPLES = 100_000      # Monte-Carlo samples of a run: the default of every entry point here


@dataclass(frozen=True)
class ChaosMoment:
    """L_q norm of a one-vector chaos: exact enumeration or seeded Monte Carlo."""

    q: float
    value: float
    mode: str                     # "exact" | "mc"
    samples: Optional[int] = None
    seed: Optional[int] = None
    stderr: Optional[float] = None


def rademacher_moment(a, q: float) -> ChaosMoment:
    """(average of |sum_j eps_j a_j|^q over sign vectors)^(1/q), exactly.

    Enumerates the 2^(n-1) sign patterns with eps_1 = +1 (the others give
    the same |chaos|); over `hlcert.tensor.PATTERN_BUDGET` (2^24, so
    n <= 25) it raises BudgetError before any work.  Runs on a
    divided by the power of two nearest max|a_j| and scales the value back,
    so entries near the floating point limits neither overflow nor underflow.
    Complex coefficients raise DomainError.
    """
    a, unit = _unit_scaled(_coefficient_vector(_real_array(a), q, np.float64))
    return ChaosMoment(q=q, value=unit * _rademacher_norm(a, q), mode="exact")


def _rademacher_norm(a: np.ndarray, q: float) -> float:
    """The L_q norm of the full chaos of a checked, unit-scaled vector or cubical tensor a."""
    # a free axis of length 1 in front makes slot 1 the core's lowest bits
    return _chaos_stats(sign_slices(a[None]), q)[1]


def steinhaus_moment(a, q: float, samples: int = MC_SAMPLES, seed: int = 0) -> ChaosMoment:
    """Monte-Carlo L_q norm of sum_j z_j a_j with independent unimodular z_j.

    The one-column case of `_steinhaus_slices`, so its samples are the
    stream of SeedSequence([seed, 0]).  Like `rademacher_moment` it runs on
    a divided by the power of two nearest max|a_j| and scales the value and
    its standard error back.
    """
    seed = _check_seed(seed)
    _check_integer("samples", samples, 2)
    a, unit = _unit_scaled(_coefficient_vector(a, q, np.complex128))
    value, value_err = _steinhaus_norm(a, q, samples, seed)
    return ChaosMoment(
        q=q, value=unit * value, mode="mc", samples=samples, seed=seed, stderr=unit * value_err,
    )


def _steinhaus_norm(a: np.ndarray, q: float, samples: int, seed: int) -> Tuple[float, float]:
    """(value, standard error) of `steinhaus_moment` on a checked, unit-scaled vector a."""
    return _chaos_stats(_steinhaus_slices(a[None], samples, seed), q)[1:3]


def _real_array(a) -> np.ndarray:
    """a as float64; complex input raises DomainError (a cast would drop the imaginary parts)."""
    arr = np.asarray(a)
    if np.iscomplexobj(arr):
        raise DomainError("real-field checks take real coefficients only")
    return arr.astype(np.float64)


def _coefficient_vector(a, q: float, dtype) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 1 or a.size == 0:
        raise DomainError("coefficient vector must be one-dimensional and nonempty")
    _check_moment_exponent("q", q)
    return a


def _check_moment_exponent(name: str, value: float) -> None:
    """The one rule for a moment's exponent: DomainError unless finite and >= 1 (NaN fails)."""
    if not (1.0 <= value < math.inf):
        raise DomainError(f"{name} must be finite and >= 1, got {value}")


def _chaos_stats(
    blocks: Iterable[np.ndarray], q: float, linf: bool = False
) -> Tuple[np.ndarray, float, float, Optional[float]]:
    """L_q norms of the chaoses V[k, j] over blocks V (K, f) of chaos slices, any width f.

    The one accumulation loop of this module.  Row k of a block is one sign
    pattern (from `sign_slices`) or one Monte-Carlo sample (from
    `_steinhaus_slices`); column j is the chaos with the coefficients of
    slice j.  Returns the L_q norm of each column, the L_q norm of the whole
    chaos (the q-th root of the mean of the row sums sum_j |V[k, j]|^q), its
    standard error by the delta method, and, when linf is set, max_k sum_j
    |V[k, j]| (else None).  Over the sign patterns the last is the exact
    norm on l_inf^n (sign vectors are the ball's extreme points, the l_1
    dual closes the free slot), whichever axis of the form is free; it is
    taken before any scaling, so it is `hlcert.norms._exact_linf_stack`'s
    value bit for bit.  Column and row sums are products with ones vectors.

    The power sums follow the rule of `hlcert.tensor._scaled_power_sums`:
    every |V| is divided by the largest |V| seen so far before it is raised
    to q, and when a larger one arrives the running sums are multiplied by
    (old / new)^q.  So every power lies in [0, 1], the whole chaos's mean
    is at least 1 / count, and no q overflows or underflows it.  The columns
    share that one scale: powers below 2^-1022 of top^q lose accuracy, so a
    column's norm is exact to about top * 2^(-1022/q) absolute (2^-511 top
    at q = 2, the largest exponent of the callers with several columns).
    """
    top = 0.0         # the largest |V| so far: the sums below are in units of top^q
    col_total = 0.0   # the first block's column sums (all >= 0) replace it bit for bit
    row_total = 0.0
    row_sq = 0.0
    sup = 0.0
    count = 0
    for V in blocks:
        W = np.abs(V)
        ones_f = np.ones(W.shape[1])
        if linf:
            sup = max(sup, float((W @ ones_f).max()))
        peak = float(W.max())
        if peak > top:
            shrink = (top / peak) ** q
            col_total *= shrink
            row_total *= shrink
            row_sq *= shrink * shrink
            top = peak
        # an all-zero start divides by the smallest positive float: its powers stay 0
        W /= max(top, _SMALLEST)
        W **= q
        col_total += np.ones(len(W)) @ W
        row_sums = W @ ones_f
        row_total += float(row_sums.sum())
        row_sq += float(row_sums @ row_sums)
        count += len(W)
    mean = row_total / count
    var = max(row_sq / count - mean**2, 0.0)
    norm = top * mean ** (1.0 / q)
    # delta method for mean^(1/q); an all-zero chaos has no spread
    err = math.sqrt(var / count) * norm / (q * mean) if mean > 0.0 else 0.0
    return top * (col_total / count) ** (1.0 / q), norm, err, sup if linf else None


def _steinhaus_slices(coeffs: np.ndarray, samples: int, seed: int) -> Iterator[np.ndarray]:
    """Yield V[k, j] = T(e_j, z_2, ..., z_m) for `samples` Steinhaus draws.

    coeffs has shape (f, n, ..., n) with axis 0 free; sample k draws
    independent Steinhaus (uniform unimodular) vectors z_2..z_m from the
    uniforms of default_rng(SeedSequence([seed, 0])), MC_BLOCK samples per
    block of shape (K, f), turned into phases by `_steinhaus_phases`.  Slot
    m of a block is closed by one matrix product against
    coeffs.reshape(-1, n).T, carried out as a real GEMM on the interleaved
    real and imaginary parts (`_complex_gemm_operand`); the slots before it
    by a per-sample einsum.  samples is an integer >= 2, which the public
    callers check.
    """
    f, r, n = coeffs.shape[0], coeffs.ndim - 1, coeffs.shape[-1]
    last = _complex_gemm_operand(coeffs.reshape(-1, n).T)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    for start in range(0, samples, MC_BLOCK):
        b = min(MC_BLOCK, samples - start)
        z = _steinhaus_phases(rng.random((b, r, n)))
        acc = (z[:, r - 1].view(np.float64) @ last).view(np.complex128)
        acc = acc.reshape((b, f) + (n,) * (r - 1))
        for i in range(r - 2, -1, -1):
            acc = np.einsum("k...a,ka->k...", acc, z[:, i])
        yield acc


def _steinhaus_phases(u: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*u) for uniforms u in [0, 1), by the half-angle form.

    With t = tan(pi*u), z = ((1 - t^2) + 2i*t) / (1 + t^2): one transcendental
    per phase instead of a cos and a sin (or a complex exp).  Over 5M draws
    and the edge values 0, 2^-53, 1/4, 1/2 -+ 2^-53, 1/2, 3/4, 1 - 2^-53,
    |z - exp(2*pi*i*u)| <= 2.7e-16 and ||z| - 1| <= 4.4e-16; at u = 1/2, t is
    about 1.6e16, so t^2 stays far from overflow and Re z = -1.  u is
    overwritten.
    """
    t = np.tan(np.multiply(u, math.pi, out=u), out=u)
    t2 = t * t
    d = t2 + 1.0
    np.subtract(1.0, t2, out=t2)
    # the parts are computed in contiguous memory and each is copied into the
    # strided layout once: ufuncs on the strided views ran slower
    parts = np.empty(u.shape + (2,))          # the complex128 memory layout
    parts[..., 0] = np.divide(t2, d, out=t2)
    parts[..., 1] = np.divide(np.multiply(t, 2.0, out=t), d, out=t)
    return parts.view(np.complex128)[..., 0]


def _complex_gemm_operand(C: np.ndarray) -> np.ndarray:
    """The real (2n, 2F) matrix M with x.view(float64) @ M == (x @ C).view(float64).

    For complex rows x (last axis contiguous) against an (n, F) matrix C:
    row 2a holds (Re C[a], Im C[a]) and row 2a+1 holds (-Im C[a], Re C[a]),
    column pairs interleaved like the complex128 memory layout.  One real
    GEMM on the interleaved parts is several times faster than the complex
    GEMM at the Monte-Carlo block shape (a few columns, thousands of rows).
    """
    n, F = C.shape
    M = np.empty((2 * n, 2 * F))
    M[0::2, 0::2] = C.real
    M[0::2, 1::2] = C.imag
    M[1::2, 0::2] = -C.imag
    M[1::2, 1::2] = C.real
    return M


@dataclass(frozen=True)
class KhinchinReport:
    """One Khinchin check: lhs = A_q * l2(a), mid = chaos L_q norm."""

    q: float
    field: ScalarField
    lhs: float
    mid: float
    ratio: float        # mid / lhs, >= 1 when the inequality holds
    mode: str
    passed: bool
    stderr: Optional[float] = None

    def to_jsonable(self) -> dict:
        return _jsonable(self)


def check_khinchin(
    a,
    q: float,
    field: ScalarField = ScalarField.REAL,
    samples: int = MC_SAMPLES,
    seed: int = 0,
) -> KhinchinReport:
    """Check A_q * (sum |a_j|^2)^(1/2) <= chaos L_q norm.

    Real field: exact Rademacher enumeration, violation beyond 1e-12 slack
    (relative to max|a_j|) raises ViolationError (the constant is optimal,
    so a violation is a bug), and complex coefficients raise DomainError.
    Complex field: Steinhaus Monte Carlo, 3-sigma soft check: a miss is
    sampling noise as often as a bug, so it returns the report with
    passed=False instead of raising.  samples is checked in both fields.
    The vector is checked and scaled once, for both sides and the moment.
    """
    seed = _check_seed(seed)
    _check_integer("samples", samples, 2)
    A = khinchin_A(q, field).value
    arr = _real_array(a) if field is ScalarField.REAL else np.asarray(a, dtype=np.complex128)
    arr, unit = _unit_scaled(arr)
    arr = _coefficient_vector(arr, q, arr.dtype)
    if field is ScalarField.REAL:
        mode, mid, stderr, slack = "exact", _rademacher_norm(arr, q), None, EXACT_SLACK
    else:
        mid, stderr = _steinhaus_norm(arr, q, samples, seed)
        mode, slack = "mc", 3.0 * stderr + MC_SLACK
    lhs = A * float(np.sqrt((np.abs(arr) ** 2).sum()))
    passed = mid >= lhs - slack
    if not passed and field is ScalarField.REAL:
        raise ViolationError(
            f"Khinchin check failed: A_q*l2 = {unit * lhs!r} > moment = {unit * mid!r} "
            f"(q={q}, {field.value})"
        )
    ratio = mid / lhs if lhs > 0.0 else 1.0
    return KhinchinReport(
        q=q, field=field, lhs=unit * lhs, mid=unit * mid, ratio=ratio, mode=mode,
        passed=passed, stderr=None if stderr is None else unit * stderr,
    )


@dataclass(frozen=True)
class ContractionReport:
    """Lemma check: every single chaos coefficient is dominated by the L_t norm."""

    m: int
    N: int
    t: float
    max_coeff: float
    moment: float
    ratio: float       # moment / max_coeff
    passed: bool

    def to_jsonable(self) -> dict:
        return _jsonable(self)


def check_contraction(a, t: float) -> ContractionReport:
    """Check max_J |a_J| <= L_t norm of the full m-fold Rademacher chaos.

    Exact enumeration over the 2^((N-1)*m) sign patterns whose first sign
    in each slot is +1 (the others repeat their |chaos|), with 1e-12 slack
    relative to the largest coefficient; real coefficients only (complex
    input raises DomainError rather than losing its imaginary parts).
    """
    arr = _real_array(a)
    if arr.ndim < 1:
        raise DomainError("coefficient tensor must have at least one axis")
    _check_moment_exponent("t", t)
    sizes = set(arr.shape)
    if len(sizes) != 1:
        raise DomainError(f"coefficient tensor must be cubical, got shape {arr.shape}")
    arr, unit = _unit_scaled(arr)
    moment = _rademacher_norm(arr, t)
    max_coeff = float(np.abs(arr).max())
    passed = max_coeff <= moment + EXACT_SLACK
    if not passed:
        raise ViolationError(
            f"contraction check failed: max coefficient {unit * max_coeff!r} > "
            f"L_{t} norm {unit * moment!r}"
        )
    ratio = moment / max_coeff if max_coeff > 0.0 else 1.0
    return ContractionReport(
        m=arr.ndim, N=arr.shape[0], t=t, max_coeff=unit * max_coeff, moment=unit * moment,
        ratio=ratio, passed=passed,
    )


@dataclass(frozen=True)
class ChainLink:
    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool = dataclass_field(metadata={"json": "pass"})
    kind: str = dataclass_field(default="inequality", metadata={"json": False})  # or "equality"

    def to_jsonable(self) -> dict:
        return _jsonable(self)


@dataclass(frozen=True)
class ChainReport:
    """Step-by-step record of the mixed-sum proof chain for one index."""

    lambda0: float
    s: float
    index: int
    field: ScalarField
    mode: str                    # "exact" | "mc"
    links: Tuple[ChainLink, ...]
    constant_factor: float       # A_{lambda0}^{-2(m-1)/s}
    norm_lower: float
    norm_upper: float
    passed: bool
    first_failure: Optional[str] = None
    mc_stderr: Optional[float] = dataclass_field(default=None, metadata={"json": False})

    def to_jsonable(self) -> dict:
        return _jsonable(self)


def verify_proof_chain(
    S: FormTensor,
    lambda0: float,
    s: float,
    index: int = 1,
    mc_samples: int = MC_SAMPLES,
    seed: int = 0,
    raise_on_failure: bool = True,
) -> ChainReport:
    """Verify every step of the mixed-sum chain for a form on l_inf^n.

    Chain, for the chosen index (1-based) with theta = 2/s and A the optimal
    Khinchin constant at lambda0:

      1. holder_interpolation: the lambda0-mixed l_s sum is at most the
         interpolated l_2/max expression per slice;
      2. multiple_khinchin: per slice j, l_2 and max are dominated by
         A^{-(m-1)} R_j and R_j, so h_j = l_2^theta * max^(1-theta) is at
         most A^{-2(m-1)/s} R_j, and the l0-sum of the h_j at most
         A^{-2(m-1)/s} (sum R_j^l0)^(1/l0).  The real chain checks every
         slice and reports the worst one (the first j of least slack), so a
         wrong constant cannot hide in the sum; the complex chain checks the
         sum, with one 3-sigma slack from the whole chaos's standard error
         (`_chaos_stats` has no per-column error, and n separate 3-sigma
         tests would multiply the false alarms);
      3. fubini_substitution: the R-sum equals the integral of the summed
         chaos (association identity, checked to 1e-10 relative);
      4. sup_domination: that integral is at most ||S|| on l_inf.

    The final link `overall_bound` composes them.  Real field: everything by
    exact enumeration, the chaos statistics and ||S|| from one pass over the
    sign patterns; failures raise ViolationError naming the link (unless
    raise_on_failure=False).  Complex field: Steinhaus Monte Carlo from
    SeedSequence([seed, 0]) with 3-sigma soft checks; nothing raises on
    noise.  ||S|| is bounded by `_linf_root_bounds` at K = `_root_count(m, n)`
    (a sandwich within cos(pi/K)^-(m-1)), and sup_domination compares against
    its upper end; where no K fits, by an alternating ascent from
    SeedSequence([seed, 1]) and the coefficient mass.  The links are
    checked on S scaled by a power of two to max|coeff| about 1, so the
    absolute slacks are relative to the largest coefficient; reported values
    are in the units of S.  The lhs of holder_interpolation and overall_bound
    is `mixed_norm(S, index, s, lambda0)` bit for bit, finite at every s.
    """
    _check_multilinear(S)
    _check_integer("index", index, 1, S.m)
    _check_integer("mc_samples", mc_samples, 2)
    if not (2.0 <= s < math.inf):
        raise DomainError(f"the interpolation step needs a finite s >= 2, got {s}")
    _check_lambda0(lambda0)
    seed = _check_seed(seed)

    # every chain quantity is 1-homogeneous in S: run the chain on S divided
    # by the power of two nearest max|coeff| (an exact scaling), so the
    # absolute slacks are relative to the largest coefficient, then scale
    # the reported values back
    scaled, unit = _unit_scaled(S.coeffs)
    S = FormTensor(m=S.m, n=S.n, field=S.field, coeffs=scaled)
    coeffs = np.moveaxis(S.coeffs, index - 1, 0)
    m, n = S.m, S.n
    theta = 2.0 / s
    A = khinchin_A(lambda0, S.field).value
    factor = A ** (-2.0 * (m - 1) / s)

    lhs_chain = mixed_norm(S, index, s, lambda0)
    flat = np.abs(coeffs.reshape(n, -1))
    l2 = np.sqrt((flat**2).sum(axis=1))
    mx = flat.max(axis=1)
    h = (l2**theta) * (mx ** (1.0 - theta))      # each slice's interpolated l_2/max
    holder_mid = float((h**lambda0).sum() ** (1.0 / lambda0))

    stderr = None
    if S.field is ScalarField.REAL:
        mode = "exact"
        R, integral, _, norm_lower = _chaos_stats(sign_slices(coeffs), lambda0, linf=True)
        norm_upper = norm_lower
        ineq_slack = EXACT_SLACK
    else:
        mode = "mc"
        R, integral, stderr, _ = _chaos_stats(
            _steinhaus_slices(coeffs, mc_samples, seed), lambda0
        )
        roots = _root_count(m, n)
        if roots is not None:
            lower, upper = _linf_root_bounds(S.coeffs[None], roots)
            norm_lower, norm_upper = float(lower[0]), float(upper[0])
        else:
            # too many root patterns: the ascent and the coefficient mass
            est = alternating_max(S, math.inf, seed=np.random.SeedSequence([seed, 1]))
            norm_lower, norm_upper = est.lower, est.upper
        ineq_slack = 3.0 * stderr * factor + MC_SLACK
    rhs = factor * R                                     # slice j's bound A^{-2(m-1)/s} R_j
    r_sum = float(_scaled_power_sums(R, lambda0))        # (sum_j R_j^l0)^(1/l0); overwrites R

    q1 = holder_mid
    q2 = factor * r_sum
    q3 = factor * integral
    q4 = factor * norm_upper

    if mode == "exact":
        # the proof bounds every slice before it sums: check the worst one
        j = int(np.argmin(rhs - h))
        khinchin = _ineq_link("multiple_khinchin", float(h[j]), float(rhs[j]), EXACT_SLACK)
    else:
        khinchin = _ineq_link("multiple_khinchin", q1, q2, ineq_slack)
    links = [
        _ineq_link("holder_interpolation", lhs_chain, q1, EXACT_SLACK),
        khinchin,
        _eq_link("fubini_substitution", q2, q3),
        _ineq_link("sup_domination", q3, q4, ineq_slack),
        _ineq_link("overall_bound", lhs_chain, q4, ineq_slack),
    ]
    first_failure = next((link.name for link in links if not link.passed), None)
    links = [
        replace(link, lhs=unit * link.lhs, rhs=unit * link.rhs, slack=unit * link.slack)
        for link in links
    ]
    report = ChainReport(
        lambda0=lambda0,
        s=s,
        index=index,
        field=S.field,
        mode=mode,
        links=tuple(links),
        constant_factor=factor,
        norm_lower=unit * norm_lower,
        norm_upper=unit * norm_upper,
        passed=first_failure is None,
        first_failure=first_failure,
        mc_stderr=None if stderr is None else unit * stderr,
    )
    if first_failure is not None and raise_on_failure and mode == "exact":
        link = next(l for l in links if l.name == first_failure)
        raise ViolationError(
            f"proof chain link {first_failure!r} failed: "
            f"lhs {link.lhs!r} vs rhs {link.rhs!r} (slack {link.slack:.3e})"
        )
    return report


def _ineq_link(name: str, lhs: float, rhs: float, slack_tol: float) -> ChainLink:
    slack = rhs - lhs
    return ChainLink(name=name, lhs=lhs, rhs=rhs, slack=slack, passed=slack >= -slack_tol)


def _eq_link(name: str, lhs: float, rhs: float) -> ChainLink:
    slack = rhs - lhs
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return ChainLink(
        name=name, lhs=lhs, rhs=rhs, slack=slack,
        passed=abs(slack) <= EQUALITY_RTOL * scale, kind="equality",
    )

