"""Dense coefficient tensors of m-linear forms and their mixed norms.

A form T on the n-dimensional l_p space (m arguments) is stored as the dense
array coeff[j1, ..., jm] = T(e_j1, ..., e_jm), row-major with j1 slowest.
Desk scale: n <= 32, m <= 4 keeps n^m small, so everything is plain numpy.
The mixed norms have one kernel, `_mixed_norms_stack`, over a stack of
tensors; `mixed_norm` and `mixed_norms` are its one-tensor case.  It works on
each tensor divided by the power of two nearest its largest magnitude, the
scaling rule the chaos checks share (`_unit_scaled`).

This module also hosts the sign-pattern enumeration shared by the exact norm
and the chaos-moment code.  `sign_slices` is the one enumeration core: for a
tensor with a free first axis it yields the slices T(., eps_2, ..., eps_m)
for every sign pattern, in pattern-index order (slot 2 holds the lowest
bits).  It factorizes the work: slots 3..m are contracted once per batch of
outer patterns by one matrix product against their Kronecker sign rows, and
slot 2 is closed by one matmul against a precomputed table of its 2^n sign
vectors (split by linearity into a table part and a per-batch offset when
2^n exceeds the block).  `iter_sign_blocks` enumerates raw patterns in
blocks and `contract_trailing_signs` contracts per-pattern vectors; the
latter serves the complex Monte-Carlo estimates and single-pattern
witnesses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .errors import BudgetError, DomainError
from .special import ScalarField

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

MAX_ENTRIES = 10**7       # default memory budget for generation, in coefficients
PATTERN_BUDGET = 2**24    # default enumeration budget, in sign patterns
DEFAULT_BLOCK = 4096      # sign patterns contracted per numpy batch

GENERATE_KINDS = ("gaussian", "signs", "sparse_unit", "steinhaus")


@dataclass(frozen=True, eq=False)
class FormTensor:
    """Immutable dense coefficient tensor of an m-linear form."""

    m: int
    n: int
    field: ScalarField
    coeffs: np.ndarray  # shape (n,)*m, float64 or complex128, read-only

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise DomainError(f"need m >= 1 and n >= 1, got m={self.m}, n={self.n}")
        dtype = np.complex128 if self.field is ScalarField.COMPLEX else np.float64
        arr = np.asarray(self.coeffs, dtype=dtype)
        if arr.size != self.n**self.m:
            raise DomainError(
                f"coefficient count {arr.size} != n^m = {self.n**self.m}"
            )
        arr = arr.reshape((self.n,) * self.m).copy()
        if not np.all(np.isfinite(arr)):
            raise DomainError("coefficients must all be finite")
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
    if not (1 <= fixed_index <= T.m):
        raise DomainError(f"fixed_index must lie in [1, {T.m}], got {fixed_index}")
    return mixed_norms(T, s, alpha)[fixed_index - 1]


def mixed_norms(T: FormTensor, s: float, alpha: float) -> List[float]:
    """[mixed_norm(T, i, s, alpha) for i = 1..m]: the one-tensor case of `_mixed_norms_stack`."""
    return _mixed_norms_stack(T.coeffs[None], s, alpha)[0].tolist()


def _mixed_norms_stack(stack: np.ndarray, s: float, alpha: float) -> np.ndarray:
    """Mixed norms of every tensor of a stack (K,) + (n,)*m, as a (K, m) array.

    Row k, column i is `mixed_norm` of stack[k] at fixed index i + 1.  Each
    tensor is divided by the power of two nearest its largest magnitude (an
    exact scaling; the norm is 1-homogeneous) and its norms are scaled back,
    so entries near the floating point limits neither overflow nor
    underflow, and scaling a tensor by 2^k scales its norms by 2^k bit for
    bit.  Every sum runs over one tensor's own row, in an order that does
    not depend on the rest of the stack, so a tensor's norms are the same
    in any stack.
    """
    if not (1.0 <= s < math.inf and 1.0 <= alpha < math.inf):
        raise DomainError("mixed-norm exponents must be finite and >= 1")
    K, m = stack.shape[0], stack.ndim - 1
    n = stack.shape[1]
    mags = np.abs(stack).reshape(K, -1)
    unit = _nearest_powers_of_two(mags.max(axis=1))
    powered = ((mags / unit[:, None]) ** s).reshape(stack.shape)
    norms = np.empty((K, m))
    others = list(range(1, m + 1))
    for axis in range(1, m + 1):
        # the fixed axis moved next to the stack axis and the others merged
        # into rows of n^(m-1): a copy, or a view where the merge allows it
        rows = powered.transpose([0, axis] + others[: axis - 1] + others[axis:])
        per_row = np.add.reduce(rows.reshape(K, n, -1), axis=2) ** (1.0 / s)
        norms[:, axis - 1] = np.add.reduce(per_row**alpha, axis=1) ** (1.0 / alpha)
    return norms * unit[:, None]


def _nearest_powers_of_two(x):
    """The power of two nearest each x >= 0 on a log scale (at most 2^1023); 1.0 where x = 0."""
    mantissa, exponent = np.frexp(x)   # x = mantissa * 2^exponent, mantissa in [0.5, 1)
    exponent = np.minimum(exponent - (mantissa < math.sqrt(0.5)), 1023)
    return np.where(x == 0.0, 1.0, np.ldexp(1.0, exponent))


def _unit_scaled(arr: np.ndarray) -> Tuple[np.ndarray, float]:
    """arr divided by the power of two nearest max|arr| (an exact scaling), and that power."""
    unit = float(_nearest_powers_of_two(np.abs(arr).max(initial=0.0)))
    return arr / unit, unit


def generate(
    kind: str,
    m: int,
    n: int,
    field: ScalarField,
    seed,
    max_entries: int = MAX_ENTRIES,
) -> FormTensor:
    """Draw a trial tensor, deterministically for a given seed.

    kinds: 'gaussian' (standard normals, independent re/im when complex),
    'signs' (+-1 entries), 'sparse_unit' (a single 1 at a random position),
    'steinhaus' (unimodular complex entries; complex field only).
    """
    if kind not in GENERATE_KINDS:
        raise DomainError(f"unknown generator kind {kind!r}; choose from {GENERATE_KINDS}")
    size = n**m
    if size > max_entries:
        raise BudgetError(f"n^m = {size} exceeds the entry budget {max_entries}")
    rng = np.random.default_rng(seed)
    shape = (n,) * m
    if kind == "gaussian":
        coeffs = rng.standard_normal(shape)
        if field is ScalarField.COMPLEX:
            coeffs = coeffs + 1j * rng.standard_normal(shape)
    elif kind == "signs":
        coeffs = rng.integers(0, 2, size=shape) * 2.0 - 1.0
        if field is ScalarField.COMPLEX:
            coeffs = coeffs.astype(np.complex128)
    elif kind == "sparse_unit":
        coeffs = np.zeros(shape)
        flat_index = int(rng.integers(0, size))
        coeffs.flat[flat_index] = 1.0
        if field is ScalarField.COMPLEX:
            coeffs = coeffs.astype(np.complex128)
    else:  # steinhaus
        if field is not ScalarField.COMPLEX:
            raise DomainError("steinhaus coefficients require the complex field")
        coeffs = np.exp(2j * math.pi * rng.random(shape))
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
    """Inverse of tensor_to_json."""
    obj = json.loads(text)
    field = ScalarField.parse(obj["field"])
    raw = obj["coeffs"]
    if field is ScalarField.COMPLEX:
        flat = np.array([complex(re, im) for re, im in raw], dtype=np.complex128)
    else:
        flat = np.array(raw, dtype=np.float64)
    return FormTensor(m=int(obj["m"]), n=int(obj["n"]), field=field, coeffs=flat)


def iter_sign_blocks(
    nbits: int,
    block: int = DEFAULT_BLOCK,
    pattern_budget: int = PATTERN_BUDGET,
) -> Iterator[np.ndarray]:
    """Yield the 2^nbits sign patterns in blocks of float64 {-1,+1} rows.

    Bit b of the pattern index maps to column b.  nbits = 0 yields a single
    empty pattern, which makes the degenerate enumerations below uniform.
    """
    if nbits < 0:
        raise DomainError("nbits must be nonnegative")
    total = 1 << nbits
    if total > pattern_budget:
        raise BudgetError(f"2^{nbits} patterns exceed the budget {pattern_budget}")
    shifts = np.arange(nbits, dtype=np.uint64)
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.uint64)
        bits = (idx[:, None] >> shifts[None, :]) & 1
        yield bits.astype(np.float64) * 2.0 - 1.0


def sign_slices(
    coeffs: np.ndarray,
    block: int = DEFAULT_BLOCK,
    pattern_budget: int = PATTERN_BUDGET,
) -> Iterator[np.ndarray]:
    """Yield V[k, j] = T(e_j, eps_2, ..., eps_m) for every sign pattern k.

    coeffs has shape (f, n, ..., n): axis 0 (any length f) stays free and
    the m - 1 trailing axes are enumerated over {-1,+1}^n each, 2^(n(m-1))
    patterns.  Bit b of the pattern index k is the sign of entry b % n of
    slot 2 + b // n, so slot 2 holds the lowest bits, exactly as
    `contract_trailing_signs` over the rows of `iter_sign_blocks` (same
    values up to rounding, same order).  Blocks of shape (K, f) with
    K <= block come in index order; a tensor with only the free axis yields
    coeffs itself as its single empty pattern.

    Raises BudgetError when the call is made, before any work, if the
    pattern count exceeds `pattern_budget`.
    """
    coeffs = np.asarray(coeffs)
    r = coeffs.ndim - 1
    n = coeffs.shape[1] if r else 0
    nbits = n * r
    if (1 << nbits) > pattern_budget:
        raise BudgetError(f"2^{nbits} sign patterns exceed the budget {pattern_budget}")
    if block < 1:
        raise DomainError(f"block must be >= 1, got {block}")
    return _sign_slices(coeffs, r, n, block)


def _sign_slices(coeffs: np.ndarray, r: int, n: int, block: int) -> Iterator[np.ndarray]:
    if r == 0:
        yield coeffs[None]
        return
    f = coeffs.shape[0]
    # slot 2 splits into `low` bits closed by the table and n - low bits that
    # join the outer patterns (slots 3..m) and enter as an offset
    low = min(n, block.bit_length() - 1)
    table = next(iter_sign_blocks(low, block=1 << low))        # (2^low, low)
    # row J (a product of trailing indices) holds C[j1, j2, J] at column
    # (j2, j1), so weights @ trailing gives slab[b, j2, j1]
    trailing = coeffs.reshape(f, n, -1).transpose(2, 1, 0).reshape(-1, n * f)
    outer_bits = n * r - low
    per_batch = max(1, block >> low)
    for outer in iter_sign_blocks(outer_bits, block=per_batch, pattern_budget=1 << outer_bits):
        B = outer.shape[0]
        high = outer[:, : n - low]
        weights = np.ones((B, 1))
        for i in range(r - 1):
            start = n - low + i * n
            weights = (weights[:, :, None] * outer[:, None, start : start + n]).reshape(B, -1)
        slab = (weights @ trailing).reshape(B, n, f)
        V = np.matmul(table, slab[:, :low])                    # (B, 2^low, f)
        if low < n:
            V += np.matmul(high[:, None, :], slab[:, low:])
        yield V.reshape(-1, f)


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
