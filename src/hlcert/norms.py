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
from typing import List, Optional, Tuple, Union

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
        out[nz] = np.conj(c[nz]) / mags[nz]
        return out
    return np.where(c < 0.0, -1.0, 1.0)


def dual_norm_linear(c: np.ndarray, p: float) -> Tuple[Union[float, np.ndarray], np.ndarray]:
    """Exact norm of x -> <c, x> on l_p^n, with a unit maximizer.

    Acts on the last axis.  A 1-D c returns (||c||_{p'}, x) where
    p' = p/(p-1) and <c, x> = ||c||_{p'} with ||x||_p = 1.  A stack of shape
    (..., n) returns the array of values and the stack of maximizers, each
    row exactly as the 1-D call on that row gives it.  A zero c (or zero
    row) gives value 0 and the first basis vector.
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
    if math.isinf(p):
        values = mags.sum(axis=-1)
        x = _phase(c)
        zero = values == 0.0
    elif p == 1.0:
        j = np.argmax(mags, axis=-1)[..., None]
        values = np.take_along_axis(mags, j, axis=-1)[..., 0]
        x = np.zeros_like(c)
        np.put_along_axis(x, j, _phase(np.take_along_axis(c, j, axis=-1)), axis=-1)
        zero = values == 0.0
    else:
        pp = p / (p - 1.0)
        scale = mags.max(axis=-1, keepdims=True)
        zero = scale[..., 0] == 0.0
        if zero.any():
            scale[zero] = 1.0
        ratio = mags / scale
        values = scale[..., 0] * (ratio**pp).sum(axis=-1) ** (1.0 / pp)
        x = _phase(c) * ratio ** (pp - 1.0)
        norm = (np.abs(x) ** p).sum(axis=-1, keepdims=True) ** (1.0 / p)
        if zero.any():
            norm[zero] = 1.0
        x /= norm
    if zero.any():
        x[zero] = np.eye(1, c.shape[-1], dtype=x.dtype)[0]
    if single:
        return float(values[0]), x[0]
    return values, x


def crude_upper(T: FormTensor, p: float = 1.0) -> float:
    """Coefficient mass sum_J |coeff[J]|: an upper bound on ||T|| for every p >= 1."""
    if p < 1.0:
        raise DomainError(f"p must be >= 1 or inf, got {p}")
    return float(np.abs(T.coeffs).sum())


def _random_unit(rng: np.random.Generator, n: int, p: float, complex_field: bool) -> np.ndarray:
    x = rng.standard_normal(n)
    if complex_field:
        x = x + 1j * rng.standard_normal(n)
    if math.isinf(p):
        return _phase(np.conj(x))
    norm = float((np.abs(x) ** p).sum() ** (1.0 / p))
    if norm == 0.0:
        out = np.zeros_like(x)
        out[0] = 1.0
        return out
    return x / norm


def _random_starts(
    seed, restarts: int, m: int, n: int, p: float, complex_field: bool
) -> List[np.ndarray]:
    """Starting vectors of every restart, one (restarts, n) array per slot.

    Restart r draws its m unit vectors, slot by slot, from child r of
    `seed`'s SeedSequence, so the first R restarts of a larger run are the
    R restarts of a smaller one.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    starts = []
    for child in ss.spawn(restarts):
        rng = np.random.default_rng(child)
        starts.append([_random_unit(rng, n, p, complex_field) for _ in range(m)])
    return [np.array([start[k] for start in starts]) for k in range(m)]


def _ascend(
    coeffs: np.ndarray,
    vectors: List[np.ndarray],
    p: float,
    max_iters: int,
    tol: float,
) -> Tuple[np.ndarray, List[np.ndarray], np.ndarray, np.ndarray]:
    """Block-coordinate ascent of R restarts at once.

    vectors[k] is an (R, n) array whose row r is restart r's argument in
    slot k.  Each slot update replaces every active row with the exact
    maximizer of its induced linear functional, so each restart's value
    sequence is nondecreasing.  A restart freezes after the first sweep with
    value - previous <= tol * value.  Returns (values (R,), vectors,
    trace (sweeps, R), converged (R,)); a frozen restart repeats its last
    value in the later rows of the trace.
    """
    m = len(vectors)
    n = coeffs.shape[0]
    R = vectors[0].shape[0]
    # slot k contracts the other slots from the last one down, as one stack
    # of matrix-vector products per slot: row r's arithmetic is the same
    # whatever the other rows hold, so a restart's result does not depend on
    # the batch it runs in
    plans = []
    for k in range(m):
        others = [i for i in range(m - 1, -1, -1) if i != k]
        plans.append((others, np.moveaxis(coeffs, k, 0).reshape(-1, n)))
    out = [np.array(v) for v in vectors]
    current = list(out)
    values = np.zeros(R)
    previous = np.zeros(R)
    converged = np.zeros(R, dtype=bool)
    active = np.arange(R)
    trace = []
    for _ in range(max_iters):
        for k, (others, matrix) in enumerate(plans):
            acc = np.matmul(matrix, current[others[0]][:, :, None])[..., 0]
            for i in others[1:]:
                acc = np.matmul(acc.reshape(len(acc), -1, n), current[i][:, :, None])[..., 0]
            value, current[k] = dual_norm_linear(acc, p)
        values[active] = value
        trace.append(values.copy())
        done = value - previous <= tol * np.maximum(value, 1e-300)
        if done.any():
            finished, keep = active[done], ~done
            converged[finished] = True
            for k in range(m):
                out[k][finished] = current[k][done]
                current[k] = current[k][keep]
            active, value = active[keep], value[keep]
            if active.size == 0:
                break
        previous = value
    for k in range(m):
        out[k][active] = current[k]
    return values, out, np.array(trace), converged


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
    coefficient mass.  Restarts draw independent unit starting tuples from
    seeds spawned off `seed` and ascend together as one batch; the result
    is their max (the first restart attaining it), so it is deterministic.
    The batch makes a single serial call fast: parallel workers in
    `certify` are optional.  Needs m >= 2 (a form with m = 1 is a linear
    functional, whose norm `dual_norm_linear` gives exactly).
    """
    if T.m < 2:
        raise DomainError("need an m-linear form with m >= 2")
    if not (p > 1.0):
        raise DomainError(f"alternating_max needs p > 1 (or inf), got {p}")
    if restarts < 1:
        raise DomainError("restarts must be >= 1")
    upper = crude_upper(T, p)
    starts = _random_starts(seed, restarts, T.m, T.n, p, T.field is ScalarField.COMPLEX)
    values, vectors, _, converged = _ascend(T.coeffs, starts, p, max_iters, tol)
    best = int(np.argmax(values))
    return NormEstimate(
        lower=min(float(values[best]), upper),
        upper=upper,
        method=NormMethod.ALTERNATING_MAX,
        restarts=restarts,
        converged=bool(converged[best]),
        witness=tuple(v[best] for v in vectors),
    )


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
