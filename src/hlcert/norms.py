"""Lower and upper bounds on the operator norm of an m-linear form over l_p balls.

Lower bounds come with an explicit witness tuple of unit vectors; upper
bounds are the Hoelder bound ||T|| <= ||coeff||_{p'} (valid for every
p >= 1; the coefficient mass at p = inf), rounded outward, for 2 <= p < inf
the smaller of it and the interpolation bound sigma^(2/p) * U^(1-2/p)
between l_2 and l_inf (`_interpolation_bounds`, the upper bound of
`crude_upper`, `certify` and `alternating_max`) or, on l_inf, the vertex
enumeration of `hlcert.tensor._vertex_slices` in all slots but the first,
which is closed in l_1-dual form.  One rule, `_linf_bounds`, turns that
enumeration into a certified sandwich over either vertex set: the sign
vectors for real forms (`exact_linf_enum`; the float maximum rounded
outward), and the K-th roots of unity for complex ones, within
cos(pi/K)^-(m-1) (K = `_root_count(m, n)`).

Every bound runs on its tensors divided by the power of two nearest their
largest magnitudes, `_unit_scaled`, and an upper bound is multiplied back
by `_times_unit`, rounded up: the one scaling rule of the package, which
the moments and checks of `hlcert.chaos` use too.  So every public upper
bound (`crude_upper`, `alternating_max`, `exact_linf_enum` and the proof
chain's `norm_upper`) is rounded outward.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dataclass_field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, _JsonResult, _seed_source
from .special import ScalarField
from .tensor import (
    _SIGNS,
    _SMALLEST,
    FormTensor,
    _finite_norms,
    _flattenings,
    _magnitudes,
    _scaled_power_sums,
    _unit_roots,
    _vertex_rows,
    _vertex_slices,
    contract_trailing_signs,
    iter_sign_blocks,  # noqa: F401  (kept as a module attribute: bench/tracer.py wraps it here)
)

__all__ = [
    "NormMethod",
    "NormEstimate",
    "dual_norm_linear",
    "crude_upper",
    "alternating_max",
    "exact_linf_enum",
]

_UNIT_ROUNDOFF = 2.0**-53
_ROUND_UP = 1.0 + 2.0**-50   # 1 + 8u: above the rounding error of a root, a power or a product
_UNDERFLOW = 2.0**-1000      # per-coefficient slack for what underflows near magnitude 1
_ROOT_COUNTS = (12, 8, 6, 4)  # the K that `_root_count` tries, largest first
_ROOT_PATTERNS = 2**18       # `_root_count`'s cap on K^((n-1)(m-1))
_MU_MARGIN = 4               # mu of `_interpolation_bounds` is (1 + 4 (n+1) u) times LAPACK's
_RESTARTS = 32               # restarts per tensor of `alternating_max` and `certify`
_SWEEP_CAP = 500             # `_best_restarts` stops a row after this many sweeps ...
_FREEZE_TOL = 1e-10          # ... or once a sweep raises its value by at most this, relative


class NormMethod(enum.Enum):
    ALTERNATING_MAX = "alternating_max"
    EXACT_SIGN_ENUM = "exact_sign_enum"


@dataclass
class NormEstimate(_JsonResult):
    """Certified sandwich lower <= ||T|| <= upper with the achieving witness.

    The witness is the tuple of unit-norm argument vectors whose evaluation
    attains `lower`; it is kept on the object but left out of the JSON view.
    """

    lower: float
    upper: float
    method: NormMethod
    restarts: int
    converged: bool
    witness: Tuple[np.ndarray, ...] = dataclass_field(
        default=(), repr=False, metadata={"json": False}
    )

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:   # written so that a NaN bound fails too
            raise ValueError(f"estimate lower {self.lower} > upper {self.upper}")


def _phase(c: np.ndarray) -> np.ndarray:
    # unimodular u with u*c = |c|; zeros map to +1
    if np.iscomplexobj(c):
        mags = np.abs(c)
        out = np.ones_like(c)
        nz = mags > 0.0
        # the parts are divided separately: complex / real would multiply
        # by 1/|c|, which overflows for subnormal |c|
        c, mags = c[nz], mags[nz]
        out.real[nz] = c.real / mags
        out.imag[nz] = -(c.imag / mags)
        return out
    return np.where(c < 0.0, -1.0, 1.0)


def dual_norm_linear(c: np.ndarray, p: float) -> Tuple[Union[float, np.ndarray], np.ndarray]:
    """Exact norm of x -> <c, x> on l_p^n, with a unit maximizer.

    Acts on the last axis.  A 1-D c returns (||c||_{p'}, x) where
    p' = p/(p-1) and <c, x> = ||c||_{p'} with ||x||_p = 1.  A stack of shape
    (..., n) returns the array of values and the stack of maximizers, each
    row exactly as the 1-D call on that row gives it.  A zero c (or zero
    row) gives value 0 and the first basis vector.

    The values are `_dual_norms` of |c|.  For finite p > 1, x is
    proportional to phase(c) * r^(p'-1) with r = |c| / max|c|: since
    (p'-1) p = p', |x|^p = r^(p'-1) * r = r^p', so the one power r^(p'-1)
    gives both the value's sum S = sum r^p' and the witness's norm S^(1/p).
    """
    _check_p(p)
    c = np.asarray(c)
    if c.ndim == 0 or c.shape[-1] == 0:
        raise DomainError(f"c must have at least one entry on its last axis, got shape {c.shape}")
    single = c.ndim == 1
    if single:
        # a 1-row stack, so that every call runs the same array arithmetic
        # (numpy scalars take other code paths that round differently)
        c = c[None]
    mags = np.abs(c)
    top = mags.max(axis=-1)
    zero = top == 0.0
    has_zero = zero.any()
    values, weight, total = _dual_norms(mags, top, p)
    if math.isinf(p):
        x = _phase(c)
    elif p == 1.0:
        j = np.argmax(mags, axis=-1)[..., None]
        x = np.zeros_like(c)
        np.put_along_axis(x, j, _phase(np.take_along_axis(c, j, axis=-1)), axis=-1)
    else:
        norm = total ** (1.0 / p)
        if has_zero:
            norm[zero] = 1.0
        x = _phase(c) * weight if np.iscomplexobj(c) else np.copysign(weight, c)
        x /= norm[..., None]
    if has_zero:
        x[zero] = np.eye(1, c.shape[-1], dtype=x.dtype)[0]
    if single:
        return float(values[0]), x[0]
    return values, x


def _check_p(p: float) -> None:
    """The one rule for the p of an l_p ball: DomainError unless p >= 1 (inf passes, NaN fails)."""
    if not p >= 1.0:   # written so that NaN fails too
        raise DomainError(f"p must be >= 1 or inf, got {p}")


def _dual_norms(
    mags: np.ndarray, top: np.ndarray, p: float
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """||row||_{p'} of every row of a magnitude stack (..., N), given its row maxima `top`.

    p' = p/(p-1): p = inf gives the row sums, p = 1 the row maxima.  For
    finite p > 1 each row is scaled by its largest magnitude, r = mags /
    top (so nothing overflows), and value = top * S^(1/p') with S = sum
    r^(p'-1) * r, which is >= 1 on a nonzero row and 0 on a zero row.
    Returns (values, weight, S), weight = r^(p'-1); the last two (which
    `dual_norm_linear` turns into its witness) are None for p = 1 or inf.
    Every row's arithmetic is its own, so a row's value does not depend on
    the stack.

    Error bound at finite p, for rows of N magnitudes each within 2u of its
    exact value (u = 2^-53; exact for real entries) and a power within 8u:
    the value is within (3N + 70) u of the exact ||row||_{p'}, relative,
    plus 2^-1075 where it is subnormal.  The scaling by top cancels, and the
    terms' relative errors pass through the 1/p' root: 3u from the ratio,
    8u + u from the power and the product, (N - 1) u from the sum of
    nonnegative terms, 8u + u + 3u ln N from the root (its computed
    exponent included) and the product by top.  The computed exponent
    p'' = 1 + fl(fl(p') - 1) is within 4u p' of p', which moves a term r^p'
    by at most 4u p' r^p' |ln r| <= 4u / e, and S >= 1: another 1.5 N u;
    ratios that underflow move S by less than N 2^-1021.
    `_interpolation_bounds` rounds the values outward by this bound (at
    p = inf by `_certified_mass`'s, at p = 1 a magnitude's 2u suffices).
    """
    if math.isinf(p):
        return mags.sum(axis=-1), None, None
    if p == 1.0:
        return top, None, None
    pp = p / (p - 1.0)
    # a zero row divides by the smallest positive float: r = 0 and value 0,
    # while every nonzero row keeps its own maximum
    ratio = mags / np.maximum(top, _SMALLEST)[..., None]
    weight = ratio ** (pp - 1.0)
    total = (weight * ratio).sum(axis=-1)
    return top * total ** (1.0 / pp), weight, total


def _hoelder_bounds(mags: np.ndarray, top: np.ndarray, p: float) -> np.ndarray:
    """Float Hoelder bounds ||coeff||_{p'} of a stack's tensors, from its `_magnitudes` (mags, top).

    Not rounded outward.  Its two callers: `hlcert.certify._score` ranks by
    it, and `_stage_1_bounds` rounds it outward.
    """
    return _dual_norms(mags, top, p)[0]


def crude_upper(T: FormTensor, p: float = math.inf) -> float:
    """The certified stage 1 bound on ||T|| over (l_p^n)^m, without the ascent.

    x_1 (x) ... (x) x_m has l_p norm prod ||x_i||_p = 1 on unit vectors, so
    |T(x_1, ..., x_m)| = |<coeff, x_1 (x) ... (x) x_m>| <= ||coeff||_{p'},
    p' = p/(p-1): the Hoelder bound, exact on rank-one tensors.  p = inf
    (the default) gives the coefficient mass sum_J |coeff[J]|, p = 1 the
    largest |coeff[J]|.  The one-tensor case of `_interpolation_bounds`:
    the Hoelder bound rounded outward, for 2 <= p < inf the smaller
    interpolation bound if that is lower.  So it is
    `alternating_max(T, p).upper`, bit for bit, for every p > 1.  A bound
    past the largest float raises DomainError (`_finite_norms`).
    """
    _check_p(p)
    with np.errstate(over="ignore"):
        bound = _interpolation_bounds(T.coeffs[None], p)
    return float(_finite_norms(bound, "Hoelder bounds", f"p={p}")[0])


def _interpolation_bounds(stack: np.ndarray, p: float, roots: Optional[int] = None) -> np.ndarray:
    """min(Hoelder, sigma^(2/p) * U^(1-2/p)) for every tensor of a stack (B,) + (n,)*m.

    Each tensor's Hoelder bound `_hoelder_bounds`, rounded outward (at
    p = inf by `_certified_mass`, elsewhere by the error bound of
    `_dual_norms`), is the result unless 2 <= p < inf: the float value
    fell below the exact ||T|| of rank-one tensors and of nonnegative ones
    at p = inf.  Multilinear complex Riesz-Thorin with constant
    1 (Bergh-Loefstroem, Interpolation Spaces, Thm 4.4.1) bounds ||T|| on
    l_p by ||T||_2^(2/p) * ||T||_inf^(1-2/p), the complex norms on l_2 and
    l_inf, and a real form's norm is at most its complexification's.

    * sigma >= ||T||_2 is the smallest, over the slots k, of the largest
      singular value of the n x n^(m-1) flattening A along slot k: the
      other slots' vectors form a product of l_2 norm 1.  sigma^2 is
      bounded by a Cholesky test of mu*I - A A^H (Rump, "Verification of
      positive definiteness", BIT 46, 2006), with mu just above LAPACK's
      largest eigenvalue, plus the test's backward error (gamma_{n+1} times
      the trace) and the Gram matrix's rounding (below 2 gamma_{N+2}
      ||A||_F^2, N = n^(m-1)).  One `eigvalsh` and one `cholesky` call
      cover every tensor and slot; where the test fails, ||A||_F^2 serves.
      Every flattening comes from one gather through
      `hlcert.tensor._flattenings`, the index the mixed-norm kernel reads;
      its transposed result holds each slot's A.
    * U >= ||T||_inf is min(mass, n^(m/2) * sigma), as the l_inf unit ball
      lies in the l_2 ball of radius sqrt(n).  With `roots` = K it is also
      capped by `_linf_bounds` at the K-th roots of unity.

    Every bound, the Hoelder one included, is computed by `_stage_1_bounds`
    on the stack scaled by `_unit_scaled` (what underflows is covered by a
    slack of 2^-1000 per coefficient) and multiplied back once by
    `_times_unit`, which rounds a subnormal product up.  So nothing
    overflows before that product and, at every p, the bound of 2^k T is
    2^k times that of T, bit for bit, wherever both scalings are exact.
    The product is taken as U * (sigma / U)^a with a = 2/p rounded to the
    side that raises it, and every sum, power and product is rounded
    outward.  A tensor's bound is the one it gets alone, in any stack:
    every Gram matrix, eigenvalue, factorization and root enumeration is
    its own, and one enumeration covers the stack.
    Coefficients must be finite, moduli included (DomainError, by
    `_magnitudes`).
    """
    scaled, unit = _unit_scaled(stack)
    return _times_unit(_stage_1_bounds(scaled, p, roots), unit)


def _stage_1_bounds(scaled: np.ndarray, p: float, roots: Optional[int] = None) -> np.ndarray:
    """`_interpolation_bounds` of a stack already scaled by `_unit_scaled`, in its units.

    Its magnitudes are taken after the scaling: the modulus of a complex
    entry with subnormal parts is off by up to 2^-1075, which is not small
    once divided by a subnormal unit.  The roots cap is
    `_scaled_linf_bounds`'s upper bound.  `_best_restarts` scales its stack
    once for this bound and the ascent.
    """
    mags, top = _magnitudes(scaled)
    size, u = mags.shape[1], _UNIT_ROUNDOFF
    bound = _hoelder_bounds(mags, top, p)
    if math.isinf(p):   # a zero tensor keeps its bound 0
        bound = np.where(bound > 0.0, _certified_mass(bound, size), 0.0)
    else:   # `_dual_norms`'s error bound; a nonzero value is at least 2^-1/2
        bound = bound * (1.0 + (3 * size + 70) * u) * _ROUND_UP
    if 2.0 <= p < math.inf:
        B, m, n = scaled.shape[0], scaled.ndim - 1, scaled.shape[1]
        frobenius = (mags * mags).sum(axis=1)[:, None]     # ||A||_F^2, the same for every slot
        terms = np.take(scaled.reshape(B, -1), _flattenings(m, n), axis=1)     # (B, N, n, m)
        flats = terms.transpose(0, 3, 2, 1)                                    # (B, m, n, N)
        gram = np.matmul(flats, flats.conj().swapaxes(-1, -2))             # (B, m, n, n)
        mu = np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0) * (1.0 + _MU_MARGIN * (n + 1) * u)
        passed = _cholesky_passes(mu[..., None, None] * np.eye(n) - gram)
        # on success: mu, the test's backward error gamma_{n+1}/(1-gamma_{n+1})
        # * n * mu, the rounding of mu - g_ii, and the Gram matrix's rounding
        # (2 gamma_{N+2}, which also covers complex products)
        squares = np.where(
            passed,
            mu * (1.0 + (n * (n + 2) + 1) * u) + (2 * n ** (m - 1) + 8) * u * frobenius,
            frobenius * (1.0 + (2 * size + 4) * u),
        )
        slack = size * _UNDERFLOW
        sigma = (np.sqrt(squares).min(axis=1) + slack) * _ROUND_UP
        mass = _certified_mass(mags.sum(axis=1), size)
        linf = np.minimum(mass, float(n) ** (0.5 * m) * _ROUND_UP * sigma * _ROUND_UP)
        if roots is not None:
            cap = _scaled_linf_bounds(scaled, _unit_roots(roots))[1]
            linf = np.minimum(linf, cap + slack)
        ratio = sigma / linf
        theta = 2.0 / p
        exponent = np.where(ratio <= 1.0, np.nextafter(theta, 0.0), np.nextafter(theta, 1.0))
        bound = np.minimum(bound, linf * ratio**exponent * _ROUND_UP)
    return bound


def _unit_scaled(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each tensor of a stack (B, ...) divided by the power of two nearest its largest magnitude.

    The one scaling rule of the bounds here and the checks in
    `hlcert.chaos`: returns (scaled, unit (B,)), unit from `_magnitudes`
    (so a non-finite entry raises DomainError before any caller works) and
    `_nearest_powers_of_two`.  Dividing by a power of two is exact unless
    an entry underflows, and a nonzero scaled tensor's largest magnitude
    lies in [2^-1/2, 2], so nothing computed from it overflows, and 2^k T
    scales to the same tensor as T wherever neither underflows.  A complex
    stack's parts are divided separately, in place in a copy, as in
    `_phase`: complex / real multiplies by 1/unit, which overflows where
    unit is subnormal.  The way back of an upper bound is `_times_unit`.
    """
    unit = _nearest_powers_of_two(_magnitudes(stack)[1])
    shaped = unit.reshape((-1,) + (1,) * (stack.ndim - 1))
    scaled = np.array(stack)
    for part in (scaled.real, scaled.imag) if np.iscomplexobj(stack) else (scaled,):
        part /= shaped
    return scaled, unit


def _nearest_powers_of_two(x):
    """The power of two nearest each x >= 0 on a log scale (at most 2^1023); 1.0 where x = 0.

    The unit of `_unit_scaled`, its one caller.  Takes an array or a 0-d
    value; every step below works on both.
    """
    mantissa, exponent = np.frexp(x)   # x = mantissa * 2^exponent, mantissa in [0.5, 1)
    exponent -= mantissa < math.sqrt(0.5)
    exponent += x == 0.0               # frexp(0) = (0, 0): back to 2^0
    return np.ldexp(1.0, np.minimum(exponent, 1023))


def _times_unit(bound: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Upper bounds of stacks scaled by `_unit_scaled`, multiplied back by their units, rounded up.

    Takes arrays or floats: the proof chain passes its scalars.  A product
    by a power of two is exact unless it is subnormal, where it rounds to
    nearest: up to 2^-1075 below the exact value, far more than any
    relative slack.  So an inexact product (out / unit != bound) moves one
    float up, and every exact one, the normal range included, stays bit for
    bit.  A product past the largest float is inf, which the bounds refuse
    and the proof chain reports.
    """
    out = bound * unit
    return np.nextafter(out, np.where(out / unit == bound, out, math.inf))


def _certified_mass(mass: np.ndarray, size: int) -> np.ndarray:
    """Upper bounds on the exact masses of tensors of `size` coefficients, from their float sums `mass`.

    The float sum of `size` magnitudes, each within u of its exact value
    (exact for real entries), is within (2 size - 1) u of the exact mass,
    relative, so it is rounded outward; a slack of 2^-1000 per coefficient
    also covers what underflows when `_unit_scaled` scales a tensor to
    largest magnitude about 1.  Every caller passes the mass of such a
    scaled tensor, so the slack is always relative to that magnitude.  The
    one certified mass of the l_inf bounds, `_interpolation_bounds` and
    `_rounded_linf`.
    """
    return (mass * (1.0 + 2 * size * _UNIT_ROUNDOFF) + size * _UNDERFLOW) * _ROUND_UP


def _cholesky_passes(matrices: np.ndarray) -> np.ndarray:
    """Whether LAPACK's Cholesky factorization succeeds on each matrix of a stack (..., n, n)."""
    try:
        np.linalg.cholesky(matrices)
    except np.linalg.LinAlgError:
        if matrices.ndim == 2:
            return np.array(False)
        return np.array([_cholesky_passes(a) for a in matrices])
    return np.ones(matrices.shape[:-2], dtype=bool)


def _random_starts(
    seed, restarts: int, m: int, n: int, p: float, complex_field: bool
) -> List[np.ndarray]:
    """Unit starting vectors of every restart, one (restarts, n) array per slot.

    One Generator, `default_rng(seed)`, draws every restart's standard
    normals in one call, restart-major: shape (restarts, m, n), or
    (restarts, 2, m, n) for complex forms, whose real and imaginary parts
    come from the same restart's block.  So the first R restarts of a larger
    run are the R restarts of a smaller one.  Each vector is then scaled to
    the unit l_p sphere (p = inf: the phases of its entries) by the l_p
    norm of `hlcert.tensor._scaled_power_sums`.
    """
    rng = np.random.default_rng(seed)
    if complex_field:
        z = rng.standard_normal((restarts, 2, m, n))
        x = z[:, 0] + 1j * z[:, 1]
    else:
        x = rng.standard_normal((restarts, m, n))
    if math.isinf(p):
        # x / |x| entrywise, a zero entry gets +1; a nonzero normal draw is
        # far above the subnormal moduli whose reciprocal would overflow
        mags = np.abs(x)
        zero = mags == 0.0
        if zero.any():
            x[zero], mags[zero] = 1.0, 1.0
        x = x / mags
    else:
        # each l_p sum scaled by its own largest entry, so no p overflows
        # or underflows it (a norm is 0 only where every draw of a row is)
        x = x / _scaled_power_sums(np.abs(x).T, p).T[..., None]
    return [x[:, k] for k in range(m)]


def _ascend(
    stack: np.ndarray,
    vectors: List[np.ndarray],
    p: float,
    max_iters: int,
    tol: float,
) -> Tuple[np.ndarray, List[np.ndarray], np.ndarray]:
    """Block-coordinate ascent of R rows at once on a stack of B tensors.

    stack has shape (B,) + (n,)*m, and vectors[k] is an (R, n) array whose
    row r is row r's argument in slot k.  The rows are B runs of R/B
    restarts, one run per tensor in stack order: row r ascends on tensor
    r // (R/B).  Each slot update replaces every active row with the exact
    maximizer of its induced linear functional, so each row's value
    sequence is nondecreasing.  A row freezes after the first sweep with
    value - previous <= tol * value.  Returns (values (R,), vectors,
    converged (R,)).  A run with max_iters = k stops where a longer run is
    after its k-th sweep, so the values of k = 1, 2, ... trace the ascent
    (a frozen row keeps its last value).
    """
    B, m = stack.shape[0], stack.ndim - 1
    R, n = vectors[0].shape
    # slot k contracts the other slots from the last one down, as one stack
    # of matrix-vector products per slot: row r's arithmetic is the same
    # whatever the other rows hold, so a row's result does not depend on
    # the batch it runs in.  Only the first product reads the tensor: with
    # B > 1 each row gathers its own tensor's matrix for it, and with B = 1
    # the one matrix broadcasts over the rows, read in place.
    plans = []
    for k in range(m):
        others = [i for i in range(m - 1, -1, -1) if i != k]
        matrix = np.moveaxis(stack, 1 + k, 1).reshape(B, -1, n)
        plans.append((others, matrix if B > 1 else matrix[0]))
    owner = np.repeat(np.arange(B), R // B)   # the tensor of each active row
    out = [np.array(v) for v in vectors]
    current = list(out)
    values = np.zeros(R)
    previous = np.zeros(R)
    converged = np.zeros(R, dtype=bool)
    active = np.arange(R)
    for _ in range(max_iters):
        for k, (others, matrix) in enumerate(plans):
            if B > 1:
                matrix = matrix[owner]
            acc = np.matmul(matrix, current[others[0]][:, :, None])[..., 0]
            for i in others[1:]:
                acc = np.matmul(acc.reshape(len(acc), -1, n), current[i][:, :, None])[..., 0]
            value, current[k] = dual_norm_linear(acc, p)
        values[active] = value
        done = value - previous <= tol * np.maximum(value, 1e-300)
        if done.any():
            finished, keep = active[done], ~done
            converged[finished] = True
            for k in range(m):
                out[k][finished] = current[k][done]
                current[k] = current[k][keep]
            active, value, owner = active[keep], value[keep], owner[keep]
            if active.size == 0:
                break
        previous = value
    for k in range(m):
        out[k][active] = current[k]
    return values, out, converged


def alternating_max(T: FormTensor, p: float, seed=0) -> NormEstimate:
    """Lower-bound ||T|| by block-coordinate ascent from random restarts.

    Fixing all arguments but one reduces the problem to an exact linear dual
    norm, so each sweep is monotone.  The `_RESTARTS` (32) restarts' unit
    starting tuples come from one stream of `seed` (`_random_starts`; 0 by
    default, like every other entry point, so two calls with the same
    arguments agree) and ascend together as one batch; the result is their
    max (the first restart attaining it).  The one-tensor case of
    `_best_restarts`, which `certify` runs over many trials at once and
    which also gives the upper bound: `certify`'s stage 1 bound,
    `_interpolation_bounds` (the Hoelder bound ||coeff||_{p'}, rounded
    outward, or for 2 <= p < inf the smaller interpolation bound), which
    caps the lower one against rounding.  Needs m >= 2 (for m = 1,
    `dual_norm_linear` is exact), p > 1 and a seed by `_seed_source`: an
    integer in [0, 2^32), which is the stream of SeedSequence([seed, 0]),
    or a numpy SeedSequence or Generator.  The restart count is not a
    setting, and every restart runs to its own convergence
    (`_best_restarts`).
    """
    _check_multilinear(T)
    if not p > 1.0:
        raise DomainError(f"alternating_max needs p > 1 (or inf), got {p}")
    lower, upper, witness, converged = _best_restarts(
        T.coeffs[None], p, _RESTARTS, [_seed_source(seed)]
    )
    return NormEstimate(
        lower=float(lower[0]),
        upper=float(upper[0]),
        method=NormMethod.ALTERNATING_MAX,
        restarts=_RESTARTS,
        converged=bool(converged[0]),
        witness=tuple(v[0] for v in witness),
    )


def _check_multilinear(T: FormTensor) -> None:
    """DomainError unless T is an m-linear form with m >= 2."""
    if T.m < 2:
        raise DomainError("need an m-linear form with m >= 2")


def _best_restarts(
    stack: np.ndarray, p: float, restarts: int, seeds: Sequence
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray], np.ndarray]:
    """The stage 1 sandwich of every tensor of a stack (B,) + (n,)*m.

    The stack is scaled once, by `_unit_scaled`, for both bounds.  upper
    is the stage 1 bound `_interpolation_bounds(stack, p)`, bit for bit
    (`_stage_1_bounds` of the scaled stack, `_times_unit`).
    Tensor b's `restarts` restarts start from `_random_starts(seeds[b],
    ...)` and ascend as rows of one `_ascend` batch on the scaled stack,
    whose rows do not depend on each other: values about 1 keep the freeze
    rule relative and no product subnormal, and 2^k T gets 2^k times the
    lower bound of T, bit for bit, wherever both scalings are exact.  The
    restart count and the convergence rule are this module's, not a setting:
    `alternating_max` and `certify` pass `_RESTARTS`, and `restarts`
    (unchecked) stays an argument for tests and shorter runs, as `_ascend`
    keeps `max_iters`.  Each row freezes on its own once a sweep gains at
    most `_FREEZE_TOL` relative, or stops after `_SWEEP_CAP` sweeps (no
    early stop across restarts).
    Returns (lower, upper, witness, converged): tensor b's best restart (the
    first attaining its max) gives lower[b], capped by upper[b] against
    rounding, witness[k][b] in slot k and converged[b].  An upper bound past
    the largest float raises DomainError (`_finite_norms`) before the ascent.
    """
    scaled, unit = _unit_scaled(stack)
    with np.errstate(over="ignore"):
        upper = _times_unit(_stage_1_bounds(scaled, p), unit)
    upper = _finite_norms(upper, "stage 1 bounds", f"p={p}")
    B, m, n = stack.shape[0], stack.ndim - 1, stack.shape[1]
    starts = [_random_starts(seed, restarts, m, n, p, np.iscomplexobj(stack)) for seed in seeds]
    vectors = [np.concatenate([s[k] for s in starts]) for k in range(m)]
    values, vectors, converged = _ascend(scaled, vectors, p, _SWEEP_CAP, _FREEZE_TOL)
    best = np.arange(B) * restarts + values.reshape(B, restarts).argmax(axis=1)
    lower = np.minimum(values[best] * unit, upper)
    return lower, upper, [v[best] for v in vectors], converged[best]


def exact_linf_enum(T: FormTensor) -> NormEstimate:
    """||T|| on (l_inf^n)^m for real scalars, by sign enumeration, rounded outward.

    The l_inf ball's extreme points are sign vectors, and flipping one
    slot's signs only flips the sign of T, so slots 2..m are enumerated over
    the sign vectors with first entry +1 (2^((n-1)(m-1)) patterns, by
    `_exact_linf_stack`) and the first slot is closed in l_1-dual form:
    value = max over patterns of sum_j1 |T(e_j1, eps2, ..., epsm)|.  The
    float value can fall on either side of the exact norm, so it is the
    lower bound (at most the float mass) and `_linf_bounds` rounds it
    outward for the upper one; the witness attains the lower bound.  Over
    `hlcert.tensor.PATTERN_BUDGET` patterns it raises BudgetError before any
    work; a bound past the largest float raises DomainError (`_finite_norms`).
    """
    if T.field is not ScalarField.REAL:
        raise DomainError("exact l_inf enumeration supports the real field only")
    r, free = T.m - 1, T.n - 1
    with np.errstate(over="ignore"):
        lower, upper, indices = _linf_bounds(T.coeffs[None], _SIGNS)
    bounds = _finite_norms(np.concatenate([lower, upper]), "l_inf norms", "p=inf")
    best_index = int(indices[0])
    # rebuild the witness from the best pattern index
    signs = np.ones((1, r, T.n))
    signs[0, :, 1:] = _vertex_rows(_SIGNS, free * r, best_index, best_index + 1).reshape(r, free)
    slice_best = contract_trailing_signs(T.coeffs, signs)[0]
    witness = (_phase(slice_best),) + tuple(signs[0])
    return NormEstimate(
        lower=float(bounds[0]),
        upper=float(bounds[1]),
        method=NormMethod.EXACT_SIGN_ENUM,
        restarts=0,
        converged=True,
        witness=witness,
    )


def _exact_linf_stack(
    stack: np.ndarray, roots: np.ndarray = _SIGNS
) -> Tuple[np.ndarray, np.ndarray]:
    """Vertex maxima on l_inf of a stack (K,) + (n,)*m of tensors, with their best patterns.

    For each tensor, the max over the vertex patterns of `_vertex_slices`
    (slots 2..m over `roots`, first entries 1) of sum_j1 |T(e_j1, z_2, ...,
    z_m)|, the float vertex maximum that `_linf_bounds` rounds outward
    (over the signs, the l_inf norm of a real tensor up to rounding).  One
    pass enumerates every tensor of the stack.  A row sum is a product with
    a ones vector, as in `hlcert.chaos._chaos_stats`, so the real chain's
    maximum is this value bit for bit.  Returns (values (K,), pattern
    indices (K,)), each index the first pattern attaining its tensor's
    maximum; a tensor's value and index are the ones it gets alone.
    """
    K = stack.shape[0]
    best = np.full(K, -1.0)
    best_index = np.zeros(K, dtype=np.int64)
    tensors = np.arange(K)
    ones = np.ones(stack.shape[1])
    start = 0
    for slices in _vertex_slices(stack, roots):
        values = np.abs(slices) @ ones
        k = np.argmax(values, axis=1)
        top = values[tensors, k]
        better = top > best
        best[better] = top[better]
        best_index[better] = start + k[better]
        start += slices.shape[1]
    return best, best_index


def _root_count(m: int, n: int) -> Optional[int]:
    """K for `_linf_bounds` at shape (m, n) within a fixed cost, or None.

    The one rule for the roots of unity that bound a complex l_inf norm, in
    `verify_proof_chain` and in `certify`'s stage 2 alike: the largest of
    12, 8, 6 and 4 with K^((n-1)(m-1)) <= 2^18 patterns.  K = 12 up to
    (2, 6), (3, 3) and (4, 2); 8 at (2, 7), (3, 4) and (4, 3); 4 at (2, 8)
    to (2, 10), (3, 5), (4, 4) and (5, 3); None past them.
    """
    digits = (n - 1) * (m - 1)
    return next((K for K in _ROOT_COUNTS if K**digits <= _ROOT_PATTERNS), None)


def _linf_bounds(stack: np.ndarray, roots: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified lower <= ||T|| <= upper on (l_inf^n)^m of every tensor T of a stack (B,) + (n,)*m.

    The one l_inf bound rule over a vertex enumeration: slots 2..m over
    `roots`, first entries 1 (`_exact_linf_stack`, BudgetError before any
    work over PATTERN_BUDGET patterns), slot 1 closed by the l_1 sum, and
    the float maximum rounded outward by `_rounded_linf`.  `_SIGNS` bound
    a real form's norm; the K-th roots of unity (`_unit_roots(K)`, K >= 4)
    that of its complexification, the norm of a complex form.  Each tensor
    is enumerated as `_unit_scaled` scales it, so the mass neither
    overflows nor underflows and the bounds of 2^k T are 2^k times those of
    T, bit for bit, wherever both scalings are exact.  The upper bound is
    scaled back by `_times_unit`; a bound past the largest float is inf,
    which the callers refuse.
    Returns (lower (B,), upper (B,), pattern indices (B,)), each index the
    first pattern attaining its tensor's maximum (`exact_linf_enum`'s
    witness); a tensor's values are the ones it gets alone.
    """
    scaled, unit = _unit_scaled(stack)
    lower, upper, index = _scaled_linf_bounds(scaled, roots)
    return lower * unit, _times_unit(upper, unit), index


def _scaled_linf_bounds(scaled: np.ndarray, roots: np.ndarray) -> Tuple[np.ndarray, ...]:
    """`_linf_bounds` of a stack already scaled by `_unit_scaled`, in its units.

    The bound that the roots cap of `_stage_1_bounds` and the complex proof
    chain read on the stack they have scaled.
    """
    enum, index = _exact_linf_stack(scaled, roots)
    return _rounded_linf(scaled, enum, roots) + (index,)


def _rounded_linf(stack: np.ndarray, enum: np.ndarray, roots: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(lower, upper) on ||T||, l_inf, from the float vertex maxima `enum` of a stack over `roots`.

    The outward rounding of `_linf_bounds`, written once so that the real
    proof chain rounds the maximum of its own `_chaos_stats` pass.  The
    tensors should be scaled to largest magnitude about 1, as there.  The
    best vertex value is attained on the ball, so lower = min(enum, mass),
    capped by the float mass like the ascent's value.  The float value
    differs from the exact one by the rounding of the computed roots, their
    products and the sums, at most gamma * mass with gamma = k*u / (1 -
    k*u), u = 2^-53 and k = n^(m-1) + n + 8m (the terms of an entry, of its
    row sum, and eight roundings per slot).  The signs are the vertices of
    the real ball, so for them (K = 2) upper = enum + gamma * mass.  The
    convex hull of the K-th roots contains the disc of radius cos(pi/K),
    and with the other slots fixed, z_i -> ||T(., ..., z_i, ...)||_1 is
    convex and 1-homogeneous; slot by slot, ||T|| <= enum / cos(pi/K)^(m-1),
    the divisor rounded down.  Rotating a slot by a root maps the grid onto
    itself and leaves the value alone, so fixing first entries loses
    nothing.  upper is capped by the mass rounded outward
    (`_certified_mass`: the float sum can fall below the exact mass, which
    is ||T|| for a tensor of nonnegative coefficients).
    """
    m, n, K = stack.ndim - 1, stack.shape[1], len(roots)
    mass = np.abs(stack).reshape(len(stack), -1).sum(axis=1)
    k = n ** (m - 1) + n + 8 * m
    gamma = k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)
    # the sign vertices are the real ball's; a disc of roots is rounded down
    cos = math.cos(math.pi / K) ** (m - 1) * (1.0 - 2 * (m + 3) * _UNIT_ROUNDOFF)
    upper = (enum + gamma * mass) / (cos if K > 2 else 1.0)
    return np.minimum(enum, mass), np.minimum(_certified_mass(mass, n**m), upper)
