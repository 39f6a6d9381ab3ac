"""Lower and upper bounds on the operator norm of an m-linear form over l_p balls.

Lower bounds come with an explicit witness tuple of unit vectors; upper
bounds are either the crude coefficient-mass bound (valid for every p >= 1)
or, for real forms on l_inf, the exact value from enumerating the extreme
points of the unit ball (sign vectors) in all slots but the first, which
is optimized in closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dataclass_field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError
from .special import ScalarField
from .tensor import (
    DEFAULT_BLOCK,
    PATTERN_BUDGET,
    FormTensor,
    contract_trailing_signs,
    iter_sign_blocks,  # noqa: F401  (kept as a module attribute: bench/tracer.py wraps it here)
    sign_slices,
)

__all__ = [
    "NormMethod",
    "NormEstimate",
    "dual_norm_linear",
    "crude_upper",
    "alternating_max",
    "exact_linf_enum",
]


class NormMethod(enum.Enum):
    ALTERNATING_MAX = "alternating_max"
    EXACT_SIGN_ENUM = "exact_sign_enum"
    CRUDE_UPPER = "crude_upper"


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
    coeffs: np.ndarray,
    vectors: List[np.ndarray],
    p: float,
    max_iters: int,
    tol: float,
    owner: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, List[np.ndarray], np.ndarray]:
    """Block-coordinate ascent of R rows at once.

    vectors[k] is an (R, n) array whose row r is row r's argument in slot k.
    With `owner` None, coeffs is one tensor of shape (n,)*m and every row is
    a restart on it; otherwise coeffs is a stack of shape (B,) + (n,)*m and
    row r ascends on tensor owner[r].  Each slot update replaces every
    active row with the exact maximizer of its induced linear functional,
    so each row's value sequence is nondecreasing.  A row freezes after the
    first sweep with value - previous <= tol * value.  Returns (values (R,),
    vectors, converged (R,)).  A run with max_iters = k stops where a longer
    run is after its k-th sweep, so the values of k = 1, 2, ... trace the
    ascent (a frozen row keeps its last value).
    """
    m = len(vectors)
    n = vectors[0].shape[1]
    R = vectors[0].shape[0]
    lead = 0 if owner is None else 1
    # slot k contracts the other slots from the last one down, as one stack
    # of matrix-vector products per slot: row r's arithmetic is the same
    # whatever the other rows hold, so a row's result does not depend on
    # the batch it runs in.  Only the first product reads the tensor; in a
    # stack of tensors each row gathers its own tensor's matrix for it.
    plans = []
    for k in range(m):
        others = [i for i in range(m - 1, -1, -1) if i != k]
        matrix = np.moveaxis(coeffs, lead + k, lead)
        plans.append((others, matrix.reshape(coeffs.shape[:lead] + (-1, n))))
    out = [np.array(v) for v in vectors]
    current = list(out)
    values = np.zeros(R)
    previous = np.zeros(R)
    converged = np.zeros(R, dtype=bool)
    active = np.arange(R)
    rows_owner = owner
    for _ in range(max_iters):
        for k, (others, matrix) in enumerate(plans):
            if rows_owner is not None:
                matrix = matrix[rows_owner]
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
            active, value = active[keep], value[keep]
            if owner is not None:
                rows_owner = owner[active]
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
    A single tensor takes the direct path, with no gathered matrices.
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
    if len(tensors) == 1:
        coeffs, owner = first.coeffs, None
    else:
        coeffs = np.stack([T.coeffs for T in tensors])
        owner = np.repeat(np.arange(len(tensors)), restarts)
    vectors = [np.concatenate([s[k] for s in starts]) for k in range(first.m)]
    values, vectors, converged = _ascend(coeffs, vectors, p, max_iters, tol, owner)
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


def exact_linf_enum(
    T: FormTensor,
    pattern_budget: int = PATTERN_BUDGET,
    block: int = DEFAULT_BLOCK,
) -> NormEstimate:
    """Exact ||T|| on (l_inf^n)^m for real scalars, by sign enumeration.

    The l_inf ball's extreme points are sign vectors; slots 2..m are
    enumerated (2^(n(m-1)) patterns, by `sign_slices`) and the first slot is
    closed in l_1-dual form: value = max over patterns of
    sum_j1 |T(e_j1, eps2, ..., epsm)|.  Over `pattern_budget` patterns it
    raises BudgetError before any work.
    """
    if T.field is not ScalarField.REAL:
        raise DomainError("exact l_inf enumeration supports the real field only")
    r = T.m - 1
    nbits = T.n * r
    best = -1.0
    best_index = 0
    start = 0
    for slices in sign_slices(T.coeffs, block=block, pattern_budget=pattern_budget):
        values = np.abs(slices).sum(axis=1)
        k = int(np.argmax(values))
        if values[k] > best:
            best = float(values[k])
            best_index = start + k
        start += len(slices)
    # rebuild the witness from the best pattern index
    shifts = np.arange(nbits, dtype=np.uint64)
    bits = (np.uint64(best_index) >> shifts) & np.uint64(1)
    signs = (bits.astype(np.float64) * 2.0 - 1.0).reshape(1, r, T.n)
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
