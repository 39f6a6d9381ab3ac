"""Dense coefficient tensors of m-linear forms and their mixed norms.

A form T on the n-dimensional l_p space (m arguments) is stored as the dense
array coeff[j1, ..., jm] = T(e_j1, ..., e_jm), row-major with j1 slowest.
Desk scale: n <= 32, m <= 4 keeps n^m small, so everything is plain numpy.
Coefficients pass one finiteness rule, `_check_finite`, where they enter:
every entry and its modulus must be finite, so a complex entry with finite
parts whose modulus passes the largest float is refused like a NaN.  A
stack's magnitudes are taken one way, `_magnitudes`, and the mixed norms
have one kernel over them, `_mixed_norms_of_magnitudes`, with
`mixed_norm(s)` its one-tensor case: the scorer in `hlcert.certify` runs the
kernel on its stack, and the proof chain in `hlcert.chaos` reads
`mixed_norm`.  The kernel gathers every row of every fixed index at once
through the slot-flattening index `_flattenings`, which the interpolation
bound in `hlcert.norms` reads too, and scales each power sum by its own
largest term, so no s or alpha overflows or underflows it: `mixed_norms`
raises only where a norm itself passes the largest float.

This module also hosts the vertex enumeration shared by the exact norms
and the chaos-moment code.  `_vertex_slices` is the one enumeration core:
for a stack of tensors, each with a free first axis, it yields every
tensor's slices T(., z_2, ..., z_m) for every vertex pattern, in
pattern-index order (slot 2 holds the lowest digits).  Each tensor of the
stack is contracted by products of the shape it gets alone, so its slices
are the same bit for bit in any stack.  Each slot's vector has first
entry 1 and its other n - 1 entries range over a set of unimodular values:
the signs for real forms (`sign_slices`), the K-th roots of unity for
complex ones (`_unit_roots`).  Multiplying a whole slot by a unimodular
scalar does the same to T, so these patterns give every Rademacher moment
and l_inf norm of the full set.  The core factorizes the work: slots 3..m
are contracted once per batch of outer patterns by one matrix product
against their Kronecker vertex rows, and slot 2 is closed by one matmul
against a precomputed table of its vertex vectors (split by linearity into
a table part and a per-batch offset when the table would exceed the block).
`iter_sign_blocks` enumerates raw sign patterns in blocks and
`contract_trailing_signs` contracts per-pattern vectors; the latter closes
the exact norm's witness slice and serves the tests' per-pattern
references.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetError, DomainError, _check_integer, _seed_source
from .special import ScalarField, _check_field

__all__ = [
    "FormTensor",
    "GENERATE_KINDS",
    "MAX_ENTRIES",
    "PATTERN_BUDGET",
    "evaluate",
    "mixed_norm",
    "mixed_norms",
    "generate",
    "tensor_to_json",
    "tensor_from_json",
    "iter_sign_blocks",
    "sign_slices",
    "contract_trailing_signs",
]

MAX_ENTRIES = 10**7       # memory budget for generation, in coefficients
PATTERN_BUDGET = 2**24    # enumeration budget, in vertex patterns
DEFAULT_BLOCK = 4096      # vertex patterns contracted per numpy batch

_SIGNS = np.array([-1.0, 1.0])   # the vertex values of a real l_inf slot
_SMALLEST = 5e-324               # the smallest positive float

GENERATE_KINDS = ("gaussian", "signs", "sparse_unit", "steinhaus")


@dataclass(frozen=True, eq=False)
class FormTensor:
    """Immutable dense coefficient tensor of an m-linear form."""

    m: int
    n: int
    field: ScalarField
    coeffs: np.ndarray  # shape (n,)*m, float64 or complex128, read-only

    def __post_init__(self) -> None:
        _check_field(self.field)
        if self.m < 1 or self.n < 1:
            raise DomainError(f"need m >= 1 and n >= 1, got m={self.m}, n={self.n}")
        dtype = np.complex128 if self.field is ScalarField.COMPLEX else np.float64
        arr = np.asarray(self.coeffs, dtype=dtype)
        if arr.size != self.n**self.m:
            raise DomainError(
                # n^m unexpanded: a large m has more digits than str(int) prints
                f"coefficient count {arr.size} != n^m = {self.n}^{self.m}"
            )
        arr = arr.reshape((self.n,) * self.m).copy()
        _check_finite(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def size(self) -> int:
        return self.coeffs.size


def evaluate(T: FormTensor, vectors: Sequence[np.ndarray]):
    """Evaluate the form: sum_J coeff[J] * x1[j1] * ... * xm[jm].

    Multilinear (no conjugation in any slot).  Raises DomainError on a
    length mismatch.
    """
    if len(vectors) != T.m:
        raise DomainError(f"expected {T.m} vectors, got {len(vectors)}")
    acc = T.coeffs
    for x in vectors:
        x = np.asarray(x)
        if x.shape != (T.n,):
            raise DomainError(f"vector length {x.shape} != ({T.n},)")
        acc = np.tensordot(acc, x, axes=([0], [0]))
    value = acc[()]
    if np.iscomplexobj(acc):
        return complex(value)
    return float(value)


def mixed_norm(T: FormTensor, fixed_index: int, s: float, alpha: float) -> float:
    """(sum_{j_i} (sum_{other indices} |coeff|^s)^(alpha/s))^(1/alpha).

    An outer l_alpha sum over the index i = fixed_index (1-based, mirroring
    the j_i subscript convention) of inner l_s sums over the other indices;
    s and alpha must be finite and >= 1.  Collapses to the flat l_s norm
    when alpha = s.  Entry i - 1 of `mixed_norms`, bit for bit.
    """
    _check_integer("fixed_index", fixed_index, 1, T.m)
    return mixed_norms(T, s, alpha)[fixed_index - 1]


def mixed_norms(T: FormTensor, s: float, alpha: float) -> List[float]:
    """[mixed_norm(T, i, s, alpha) for i = 1..m]: the one-tensor case of the kernel.

    Finite at every s and alpha, since each power sum is scaled by its own
    largest term.  A norm past the largest float (the 2 x 2 tensor of
    1.5e308 at s = alpha = 2) raises DomainError naming s and alpha, so no
    result is inf.
    """
    stack = T.coeffs[None]
    mags, _ = _magnitudes(stack)
    # inf / inf in the outer scaling gives NaN: both mean an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _mixed_norms_of_magnitudes(mags, stack.shape, s, alpha)[0]
    return _finite_norms(norms, "mixed norms", f"s={s}, alpha={alpha}").tolist()


def _finite_norms(norms: np.ndarray, what: str, where: str) -> np.ndarray:
    """norms, unless one is past the largest float: then DomainError "<what> overflow at <where>".

    The one overflow rule for norm results (`mixed_norms`, and in
    `hlcert.norms` `crude_upper`, `exact_linf_enum` and the stage 1 bound of
    `alternating_max`): each is computed with numpy's overflow warning off
    and refused here, so none returns inf or NaN.
    """
    if not np.isfinite(norms).all():
        raise DomainError(f"{what} overflow at {where}")
    return norms


def _magnitudes(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """|stack| of a stack (K,) + (n,)*m as (K, n^m), and its row maxima.

    A row maximum that is not finite raises DomainError (`_check_finite`):
    a NaN or infinite part, or a complex modulus past the largest float.
    """
    mags = np.abs(stack).reshape(len(stack), -1)
    top = mags.max(axis=1)
    if not np.isfinite(top).all():
        _check_finite(stack)
    return mags, top


def _check_finite(coeffs: np.ndarray) -> None:
    """The one finiteness rule for coefficients: DomainError unless every entry is finite.

    So must a complex entry's modulus, which can pass the largest float with finite parts.
    """
    if not np.isfinite(np.abs(coeffs) if np.iscomplexobj(coeffs) else coeffs).all():
        raise DomainError("coefficients must all be finite")


def _mixed_norms_of_magnitudes(
    mags: np.ndarray, shape: Tuple[int, ...], s: float, alpha: float
) -> np.ndarray:
    """Mixed norms of a stack of `shape` (K,) + (n,)*m from its `_magnitudes`, as (K, m).

    Row k, column i is `mixed_norm` of stack[k] at fixed index i + 1.  One
    gather through `_flattenings` lays the magnitudes out as (n^(m-1)
    terms, n rows, m axes, K tensors).  Each row is divided by its own
    largest term, raised to s, summed, rooted and multiplied back; the
    outer l_alpha sum over the rows is scaled the same way by its largest
    row value (the per-row rule of the Hoelder bound, `_dual_norms` in
    `hlcert.norms`).  So every power lies in [0, 1] and a nonzero row's
    sum in [1, n^(m-1)] before its root: no step overflows unless the norm
    itself does, and none underflows to a wrong value, whatever s and
    alpha.  Tensors lie innermost, so every max and sum over terms or rows
    runs slice by slice, in flat-index order, for each tensor alone: a
    tensor's norms are the same in any stack.
    """
    if not (1.0 <= s < math.inf and 1.0 <= alpha < math.inf):
        raise DomainError("mixed-norm exponents must be finite and >= 1")
    m, n = len(shape) - 1, shape[1]
    terms = np.take(mags.T, _flattenings(m, n), axis=0)   # (n^(m-1), n, m, K)
    rows = _scaled_power_sums(terms, s)                     # (n, m, K)
    return _scaled_power_sums(rows, alpha).T


def _scaled_power_sums(x: np.ndarray, q: float) -> np.ndarray:
    """The l_q norms along axis 0 of x >= 0, each sum scaled by its own largest term.

    Overwrites x.
    """
    top = np.maximum.reduce(x, axis=0)
    # a zero sum divides by the smallest positive float, not 0: its terms
    # stay 0, while every nonzero sum keeps its own largest term
    x /= np.maximum(top, _SMALLEST)
    x **= q
    total = np.add.reduce(x, axis=0)
    total **= 1.0 / q
    total *= top
    return total


@functools.lru_cache(maxsize=None)
def _flattenings(m: int, n: int) -> np.ndarray:
    """Flat indices (n^(m-1), n, m) of an (n,)*m tensor: the rows of every slot's flattening.

    [t, j, k] is term t of the row T[..., j, ...] with j in slot k, the
    terms in flat-index order.  Terms lie outermost, so a gather through it
    puts a stack's tensors innermost.  Every caller shares the array and
    none writes to it; it stays writable, since `np.take` copies a
    read-only index on every call.
    """
    flat = np.arange(n**m).reshape((n,) * m)
    index = np.empty((n ** (m - 1), n, m), dtype=np.intp)
    for k in range(m):
        index[:, :, k] = np.moveaxis(flat, k, 0).reshape(n, -1).T
    return index


def _nearest_powers_of_two(x):
    """The power of two nearest each x >= 0 on a log scale (at most 2^1023); 1.0 where x = 0.

    Takes an array or a 0-d value; every step below works on both.
    """
    mantissa, exponent = np.frexp(x)   # x = mantissa * 2^exponent, mantissa in [0.5, 1)
    exponent -= mantissa < math.sqrt(0.5)
    exponent += x == 0.0               # frexp(0) = (0, 0): back to 2^0
    return np.ldexp(1.0, np.minimum(exponent, 1023))


def _unit_scaled(arr: np.ndarray) -> Tuple[np.ndarray, float]:
    """arr divided by the power of two nearest max|arr| (an exact scaling), and that power.

    Non-finite entries raise DomainError, before any caller enumerates.
    """
    _check_finite(arr)
    unit = float(_nearest_powers_of_two(np.abs(arr).max(initial=0.0)))
    return arr / unit, unit


def _check_kinds(kinds: Tuple[str, ...], field: Optional[ScalarField] = None) -> None:
    """The one rule for generator kinds: DomainError unless a nonempty tuple of GENERATE_KINDS.

    With a field, each kind must be one that field holds: 'steinhaus' needs the complex field.
    """
    if not (isinstance(kinds, tuple) and kinds):
        raise DomainError(f"kinds must name at least one generator kind in a tuple, got {kinds!r}")
    for kind in kinds:
        if kind not in GENERATE_KINDS:
            raise DomainError(f"unknown generator kind {kind!r}; choose from {GENERATE_KINDS}")
        if kind == "steinhaus" and field not in (None, ScalarField.COMPLEX):
            raise DomainError("steinhaus coefficients require the complex field")


def generate(kind: str, m: int, n: int, field: ScalarField, seed) -> FormTensor:
    """Draw a trial tensor, deterministically for a given seed.

    kinds: 'gaussian' (standard normals, independent re/im when complex),
    'signs' (+-1 entries), 'sparse_unit' (a single 1 at a random position),
    'steinhaus' (unimodular complex entries; complex field only).  More
    than MAX_ENTRIES coefficients raise BudgetError.  seed is an integer in
    [0, 2^32), which is the stream of SeedSequence([seed, 0]), or a numpy
    SeedSequence or Generator (`_seed_source`).
    """
    _check_kinds((kind,), field)
    _check_integer("m", m, 1)
    _check_integer("n", n, 1)
    size = n**m
    if size > MAX_ENTRIES:
        raise BudgetError(f"n^m = {size} exceeds the entry budget {MAX_ENTRIES}")
    rng = np.random.default_rng(_seed_source(seed))
    shape = (n,) * m
    if kind == "gaussian":
        coeffs = rng.standard_normal(shape)
        if field is ScalarField.COMPLEX:
            coeffs = coeffs + 1j * rng.standard_normal(shape)
    elif kind == "signs":
        coeffs = rng.integers(0, 2, size=shape) * 2.0 - 1.0
    elif kind == "sparse_unit":
        coeffs = np.zeros(shape)
        flat_index = int(rng.integers(0, size))
        coeffs.flat[flat_index] = 1.0
    else:  # steinhaus, on the complex field
        coeffs = np.exp(2j * math.pi * rng.random(shape))
    # FormTensor casts real draws to the complex field's dtype
    return FormTensor(m=m, n=n, field=field, coeffs=coeffs)


def tensor_to_json(T: FormTensor) -> str:
    """Serialize to the flat JSON schema {m, n, field, coeffs} (row-major).

    Complex entries are emitted as [re, im] pairs.
    """
    flat = T.coeffs.reshape(-1)
    if T.field is ScalarField.COMPLEX:
        coeffs = [[float(c.real), float(c.imag)] for c in flat]
    else:
        coeffs = [float(c) for c in flat]
    return json.dumps(
        {"m": T.m, "n": T.n, "field": T.field.value, "coeffs": coeffs},
        sort_keys=True,
    )


def tensor_from_json(text: str) -> FormTensor:
    """Inverse of tensor_to_json.

    Any other document raises DomainError naming what is wrong: the keys
    missing from it (all four when it is not a JSON object), an m or n that
    is not a JSON integer, or coeffs that are not a flat list of numbers
    (real field) or of [re, im] pairs of numbers (complex field).  Strings
    and booleans are not numbers.
    """
    obj = json.loads(text)
    keys = ("m", "n", "field", "coeffs")
    missing = [key for key in keys if not isinstance(obj, dict) or key not in obj]
    if missing:
        raise DomainError(f"a tensor is a JSON object with keys {keys}, missing {missing}")
    field = ScalarField.parse(obj["field"])
    m, n, raw = obj["m"], obj["n"], obj["coeffs"]
    if not (type(m) is int and type(n) is int):   # true and false load as bool
        raise DomainError(f"tensor m and n must be JSON integers, got m={m!r}, n={n!r}")
    if field is ScalarField.COMPLEX:
        entry_ok, what = _is_json_pair, "[re, im] pairs of numbers"
    else:
        entry_ok, what = _is_json_number, "numbers"
    if not (isinstance(raw, list) and all(entry_ok(c) for c in raw)):
        raise DomainError(f"{field.value} coeffs must be a flat list of {what}, got {raw!r:.60}")
    flat = np.array(raw, dtype=np.float64)
    if field is ScalarField.COMPLEX:
        flat = flat.reshape(-1, 2).view(np.complex128)[:, 0]   # each pair's memory is its complex128
    return FormTensor(m=m, n=n, field=field, coeffs=flat)


def _is_json_number(value) -> bool:
    """True for a JSON number: json.loads gives exactly an int or a float (true and false are bool)."""
    return type(value) in (int, float)


def _is_json_pair(value) -> bool:
    """True for a JSON [re, im] pair of numbers."""
    return isinstance(value, list) and len(value) == 2 and all(map(_is_json_number, value))


def iter_sign_blocks(nbits: int, block: int = DEFAULT_BLOCK) -> Iterator[np.ndarray]:
    """Yield the 2^nbits sign patterns in blocks of float64 {-1,+1} rows.

    Bit b of the pattern index maps to column b.  nbits = 0 yields a single
    empty pattern, which makes the degenerate enumerations below uniform.
    More than PATTERN_BUDGET patterns raise BudgetError at the first block.
    """
    if nbits < 0:
        raise DomainError("nbits must be nonnegative")
    total = 1 << nbits
    if total > PATTERN_BUDGET:
        raise BudgetError(f"2^{nbits} patterns exceed the budget {PATTERN_BUDGET}")
    for start in range(0, total, block):
        yield _vertex_rows(_SIGNS, nbits, start, min(start + block, total))


def sign_slices(coeffs: np.ndarray) -> Iterator[np.ndarray]:
    """Yield V[k, j] = T(e_j, eps_2, ..., eps_m) for every sign pattern k with eps_i[0] = +1.

    coeffs has shape (f, n, ..., n): axis 0 (any length f) stays free and
    the m - 1 trailing axes are enumerated over the sign vectors whose first
    entry is +1, 2^((n-1)(m-1)) patterns.  Flipping every sign of one slot
    negates V, so these patterns give every Rademacher chaos moment and the
    l_inf norm of the full enumeration.  Bit b of the pattern index k is the
    sign of entry 1 + b % (n-1) of slot 2 + b // (n-1) (bit 0 is -1, bit 1
    is +1), so slot 2 holds the lowest bits.  Blocks of shape (K, f) with
    K <= DEFAULT_BLOCK come in index order; a tensor with only the free axis
    yields coeffs itself as its single empty pattern.  The sign case of
    `_vertex_slices`, on a stack of one.

    Raises BudgetError when the call is made, before any work, if the
    pattern count exceeds PATTERN_BUDGET.  Both constants are read at call
    time.
    """
    return (V[0] for V in _vertex_slices(np.asarray(coeffs)[None], _SIGNS))


def _unit_roots(K: int) -> np.ndarray:
    """The K-th roots of unity exp(2*pi*i*k/K), k = 0..K-1, for even K.

    The second half is the exact negative of the first, so 1 and -1 are
    exact; every other root is within a few units of roundoff of its value.
    """
    half = np.exp(2j * math.pi * np.arange(K // 2) / K)
    return np.concatenate([half, -half])


def _vertex_slices(stack: np.ndarray, roots: np.ndarray) -> Iterator[np.ndarray]:
    """Yield V[t, k, j] = T_t(e_j, z_2, ..., z_m) for every tensor t and vertex pattern k.

    The one enumeration core.  stack has shape (T, f, n, ..., n): T tensors,
    each with a free first axis of any length f and m - 1 enumerated slots.
    Each enumerated slot's vector z_i has first entry 1 and its other n - 1
    entries range over `roots` (K values): the signs (-1, +1) for real
    forms, `_unit_roots(K)` for complex ones, so K^((n-1)(m-1)) patterns.
    Digit b (base K) of the pattern index k picks roots[digit] for entry
    1 + b % (n-1) of slot 2 + b // (n-1).  Blocks of shape (T, P, f), with P
    <= DEFAULT_BLOCK patterns whatever T is, come in index order.  Every
    product contracts each tensor with the shape it has alone, so V[t] is
    the same bit for bit for any T.  Raises BudgetError, before any work,
    over PATTERN_BUDGET patterns.
    """
    stack = np.asarray(stack)
    r = stack.ndim - 2
    digits = (stack.shape[2] - 1) * r if r else 0
    if len(roots) ** digits > PATTERN_BUDGET:
        raise BudgetError(
            f"{len(roots)}^{digits} vertex patterns exceed the budget {PATTERN_BUDGET}"
        )
    return _vertex_blocks(stack, roots, DEFAULT_BLOCK)


def _vertex_blocks(stack: np.ndarray, roots: np.ndarray, block: int) -> Iterator[np.ndarray]:
    r = stack.ndim - 2
    if r == 0:
        yield stack[:, None]
        return
    T, f, n, K = stack.shape[0], stack.shape[1], stack.shape[2], len(roots)
    free = n - 1
    # slot 2 splits into its first entry and `low` free entries, closed by
    # one table of vertex rows, and free - low entries that join the outer
    # patterns (slots 3..m) and enter as a per-batch offset
    low = 0
    while low < free and K ** (low + 1) <= block:
        low += 1
    rows = K**low
    table = np.ones((rows, 1 + low), dtype=roots.dtype)
    table[:, 1:] = _vertex_rows(roots, low, 0, rows)
    # row J of tensor t (a product of trailing indices) holds C[j1, j2, J]
    # at column (j2, j1), so weights @ trailing[t] gives slab[t, b, j2, j1];
    # each product below broadcasts over the tensors, one matrix per tensor
    trailing = stack.reshape(T, f, n, -1).transpose(0, 3, 2, 1).reshape(T, -1, n * f)
    outer_digits = free * r - low
    total = K**outer_digits
    per_batch = max(1, block // rows)
    for start in range(0, total, per_batch):
        outer = _vertex_rows(roots, outer_digits, start, min(start + per_batch, total))
        B = len(outer)
        ones = np.ones((B, 1), dtype=roots.dtype)
        weights = ones
        for i in range(r - 1):
            a = free - low + i * free
            slot = np.concatenate((ones, outer[:, a : a + free]), axis=1)
            weights = (weights[:, :, None] * slot[:, None, :]).reshape(B, -1)
        slab = np.matmul(weights, trailing).reshape(T, B, n, f)
        V = np.matmul(table, slab[:, :, : 1 + low])            # (T, B, rows, f)
        if low < free:
            V += np.matmul(outer[:, None, : free - low], slab[:, :, 1 + low :])
        yield V.reshape(T, -1, f)


def _vertex_rows(roots: np.ndarray, digits: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the vertex patterns: row k, column b holds roots[digit b of k]."""
    K = len(roots)
    idx = np.arange(start, stop, dtype=np.int64)
    place = K ** np.arange(digits, dtype=np.int64)
    return roots[idx[:, None] // place % K]


def contract_trailing_signs(coeffs: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Contract the last r axes of `coeffs` against r per-pattern sign vectors.

    signs has shape (K, r, n): signs[k, i] multiplies tensor axis
    (ndim - r + i).  Returns an array of shape (K,) + leading axes, e.g.
    (K, n) when one leading axis is kept free and (K,) when r = ndim.
    """
    K, r, n = signs.shape
    if r == 0:
        return np.broadcast_to(coeffs, (K,) + coeffs.shape)
    acc = np.einsum("...a,ka->k...", coeffs, signs[:, r - 1, :])
    for i in range(r - 2, -1, -1):
        acc = np.einsum("k...a,ka->k...", acc, signs[:, i, :])
    return acc
