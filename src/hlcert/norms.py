"""Lower and upper bounds on the operator norm of an m-linear form over l_p balls.

Lower bounds come with an explicit witness tuple of unit vectors; upper
bounds are the crude coefficient-mass bound (valid for every p >= 1) or,
on l_inf, the vertex enumeration of `hlcert.tensor._vertex_slices` in all
slots but the first, which is closed in l_1-dual form: exact over the sign
vectors for real forms (`exact_linf_enum`), and within cos(pi/K)^-(m-1)
over the K = UNIT_ROOTS roots of unity for complex ones
(`_linf_root_bounds`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dataclass_field
from typing import List, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError
from .special import ScalarField
from .tensor import (
    _SIGNS,
    FormTensor,
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

UNIT_ROOTS = 12              # K: complex l_inf slots are enumerated over the K-th roots of unity
_UNIT_ROUNDOFF = 2.0**-53


class NormMethod(enum.Enum):
    ALTERNATING_MAX = "alternating_max"
    EXACT_SIGN_ENUM = "exact_sign_enum"


@dataclass
class NormEstimate:
    """Certified sandwich lower <= ||T|| <= upper with the achieving witness.

    The witness is the tuple of unit-norm argument vectors whose evaluation
    attains `lower`; it is kept on the object but left out of the JSON view.
    """

    lower: float
    upper: float
    method: NormMethod
    restarts: int
    converged: bool
    witness: Tuple[np.ndarray, ...] = dataclass_field(default=(), repr=False)

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"estimate lower {self.lower} > upper {self.upper}")

    def to_jsonable(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "method": self.method.value,
            "restarts": self.restarts,
            "converged": self.converged,
        }


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

    For finite p > 1 each row is scaled by its largest magnitude, r = |c| /
    max|c| (so nothing overflows), and x is proportional to
    phase(c) * r^(p'-1).  Since (p'-1) p = p', |x|^p = r^(p'-1) * r = r^p':
    the one power r^(p'-1) gives both the value's sum S = sum r^p', with
    value = max|c| * S^(1/p'), and the witness's norm S^(1/p).
    """
    if p < 1.0:
        raise DomainError(f"p must be >= 1 or inf, got {p}")
    c = np.asarray(c)
    single = c.ndim == 1
    if single:
        # a 1-row stack, so that every call runs the same array arithmetic
        # (numpy scalars take other code paths that round differently)
        c = c[None]
    mags = np.abs(c)
    top = mags.max(axis=-1)
    zero = top == 0.0
    has_zero = zero.any()
    if math.isinf(p):
        values = mags.sum(axis=-1)
        x = _phase(c)
    elif p == 1.0:
        j = np.argmax(mags, axis=-1)[..., None]
        values = top
        x = np.zeros_like(c)
        np.put_along_axis(x, j, _phase(np.take_along_axis(c, j, axis=-1)), axis=-1)
    else:
        pp = p / (p - 1.0)
        if has_zero:
            top[zero] = 1.0
        ratio = mags / top[..., None]
        weight = ratio ** (pp - 1.0)
        total = (weight * ratio).sum(axis=-1)  # >= 1 on a nonzero row, 0 on a zero row
        values = top * total ** (1.0 / pp)
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


def crude_upper(T: FormTensor, p: float = 1.0) -> float:
    """Coefficient mass sum_J |coeff[J]|: an upper bound on ||T|| for every p >= 1."""
    if p < 1.0:
        raise DomainError(f"p must be >= 1 or inf, got {p}")
    return float(np.abs(T.coeffs).sum())


def _random_starts(
    seed, restarts: int, m: int, n: int, p: float, complex_field: bool
) -> List[np.ndarray]:
    """Unit starting vectors of every restart, one (restarts, n) array per slot.

    One Generator, `default_rng(seed)`, draws every restart's standard
    normals in one call, restart-major: shape (restarts, m, n), or
    (restarts, 2, m, n) for complex forms, whose real and imaginary parts
    come from the same restart's block.  So the first R restarts of a larger
    run are the R restarts of a smaller one.  Each vector is then scaled to
    the unit l_p sphere (p = inf: the phases of its entries).
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
        norm = (np.abs(x) ** p).sum(axis=-1, keepdims=True) ** (1.0 / p)
        zero = norm[..., 0] == 0.0
        if zero.any():
            norm[zero] = 1.0
            x[zero] = np.eye(1, n, dtype=x.dtype)[0]
        x = x / norm
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
    # the one matrix broadcasts over the rows.
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


def alternating_max(
    T: FormTensor,
    p: float,
    restarts: int = 32,
    max_iters: int = 500,
    tol: float = 1e-10,
    seed=None,
) -> NormEstimate:
    """Lower-bound ||T|| by block-coordinate ascent from random restarts.

    Fixing all arguments but one reduces the problem to an exact linear dual
    norm, so each sweep is monotone.  The upper bound is the crude
    coefficient mass.  The restarts' unit starting tuples come from one
    stream of `seed` (`_random_starts`) and ascend together as one batch;
    the result is their max (the first restart attaining it), so it is
    deterministic.  This is the one-tensor case of the batch that `certify`
    runs over many trials at once (`_alternating_max_batch`): every restart
    gives the same value bit for bit in either.  Needs m >= 2 (a form with
    m = 1 is a linear functional, whose norm `dual_norm_linear` gives
    exactly).
    """
    return _alternating_max_batch([T], p, restarts, max_iters, tol, [seed])[0]


def _alternating_max_batch(
    tensors: Sequence[FormTensor],
    p: float,
    restarts: int,
    max_iters: int,
    tol: float,
    seeds: Sequence,
) -> List[NormEstimate]:
    """`alternating_max(tensors[b], ..., seed=seeds[b])` for every b, as one ascent.

    The tensors share (m, n, field).  Their restarts run as the rows of one
    `_ascend` batch, trial-major, and each row's arithmetic does not depend
    on the batch, so every estimate is the same whatever the batch holds.
    """
    first = tensors[0]
    if first.m < 2:
        raise DomainError("need an m-linear form with m >= 2")
    if not (p > 1.0):
        raise DomainError(f"alternating_max needs p > 1 (or inf), got {p}")
    if restarts < 1:
        raise DomainError("restarts must be >= 1")
    cx = first.field is ScalarField.COMPLEX
    starts = [_random_starts(seed, restarts, first.m, first.n, p, cx) for seed in seeds]
    stack = np.stack([T.coeffs for T in tensors])
    vectors = [np.concatenate([s[k] for s in starts]) for k in range(first.m)]
    values, vectors, converged = _ascend(stack, vectors, p, max_iters, tol)
    estimates = []
    for b, T in enumerate(tensors):
        # the best restart (the first attaining the max), capped by the mass
        upper = crude_upper(T, p)
        best = b * restarts + int(np.argmax(values[b * restarts : (b + 1) * restarts]))
        estimates.append(NormEstimate(
            lower=min(float(values[best]), upper),
            upper=upper,
            method=NormMethod.ALTERNATING_MAX,
            restarts=restarts,
            converged=bool(converged[best]),
            witness=tuple(v[best] for v in vectors),
        ))
    return estimates


def exact_linf_enum(T: FormTensor) -> NormEstimate:
    """Exact ||T|| on (l_inf^n)^m for real scalars, by sign enumeration.

    The l_inf ball's extreme points are sign vectors, and flipping one
    slot's signs only flips the sign of T, so slots 2..m are enumerated over
    the sign vectors with first entry +1 (2^((n-1)(m-1)) patterns, by
    `sign_slices`) and the first slot is closed in l_1-dual form: value =
    max over patterns of sum_j1 |T(e_j1, eps2, ..., epsm)|.  Over
    `hlcert.tensor.PATTERN_BUDGET` patterns it raises BudgetError before any
    work.
    """
    if T.field is not ScalarField.REAL:
        raise DomainError("exact l_inf enumeration supports the real field only")
    r, free = T.m - 1, T.n - 1
    values, indices = _exact_linf_stack(T.coeffs[None])
    best, best_index = float(values[0]), int(indices[0])
    # rebuild the witness from the best pattern index
    signs = np.ones((1, r, T.n))
    signs[0, :, 1:] = _vertex_rows(_SIGNS, free * r, best_index, best_index + 1).reshape(r, free)
    slice_best = contract_trailing_signs(T.coeffs, signs)[0]
    witness = (_phase(slice_best),) + tuple(signs[0])
    return NormEstimate(
        lower=best,
        upper=best,
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
    z_m)|: with the signs, the exact l_inf norm of a real tensor; with the
    roots of unity, the lower end of `_linf_root_bounds`.  One pass
    enumerates every tensor at once: the stack axis and the first slot
    merge into one free axis of length K*n, and tensor k owns columns k*n ..
    k*n + n - 1 of every block.  Returns (values (K,), pattern indices
    (K,)), each index the first pattern attaining its tensor's maximum.
    Each tensor's value is the one `exact_linf_enum` gives on it alone
    wherever the BLAS products round every column alike: bit for bit at
    every shape tested except m = 2 with n >= 9, where about one value in
    500 differs in the last bit.
    """
    K, n = stack.shape[0], stack.shape[1]
    best = np.full(K, -1.0)
    best_index = np.zeros(K, dtype=np.int64)
    columns = np.arange(K)
    start = 0
    free = stack.reshape((K * n,) + stack.shape[2:])
    for slices in _vertex_slices(free, roots):
        values = np.abs(slices).reshape(len(slices), K, n).sum(axis=2)
        k = np.argmax(values, axis=0)
        top = values[k, columns]
        better = top > best
        best[better] = top[better]
        best_index[better] = start + k[better]
        start += len(slices)
    return best, best_index


def _linf_root_bounds(coeffs: np.ndarray) -> Tuple[float, float]:
    """Certified lower <= ||T|| <= upper on (l_inf^n)^m for complex coefficients.

    Slots 2..m are enumerated over the UNIT_ROOTS-th roots of unity, first
    entries 1 (`_exact_linf_stack`, K^((n-1)(m-1)) patterns, BudgetError
    before any work over PATTERN_BUDGET), and slot 1 is closed by the l_1
    sum: the best value `enum` is attained on the ball, so it is the lower
    bound (capped by the mass, like the ascent's).  The convex hull of the
    K-th roots contains the disc of radius cos(pi/K), and with the other
    slots fixed, z_i -> ||T(., ..., z_i, ...)||_1 is convex and
    1-homogeneous; slot by slot, ||T|| <= enum / cos(pi/K)^(m-1).  Rotating
    a slot by a root maps the grid onto itself and leaves the value alone,
    so fixing first entries loses nothing.  The upper bound adds
    gamma * mass to enum for the rounding of the computed roots, their
    products and the sums, gamma = k*u / (1 - k*u) with u = 2^-53 and k =
    n^(m-1) + n + 8m (the terms of an entry, of its row sum, and eight
    roundings per slot), divides by cos(pi/K)^(m-1) rounded down, and is
    capped by the mass.
    """
    m, n = coeffs.ndim, coeffs.shape[0]
    enum = float(_exact_linf_stack(coeffs[None], _unit_roots(UNIT_ROOTS))[0][0])
    mass = float(np.abs(coeffs).sum())
    k = n ** (m - 1) + n + 8 * m
    gamma = k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)
    divisor = math.cos(math.pi / UNIT_ROOTS) ** (m - 1) * (1.0 - 2 * (m + 3) * _UNIT_ROUNDOFF)
    return min(enum, mass), min(mass, (enum + gamma * mass) / divisor)
