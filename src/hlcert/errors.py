"""Exception types shared across the package, the integer and seed rules that raise one, and
the one JSON rule of every result (`_jsonable`, behind each `to_jsonable` and the CLI's
payloads): fields in declaration order, NaN as null, +-inf as "inf" / "-inf".
"""

import dataclasses
import enum
import math
import numbers
from typing import Optional

import numpy as np


class DomainError(ValueError):
    """Input lies outside the supported mathematical domain."""


class SingularExponentError(DomainError):
    """An exponent formula hit a zero denominator for these parameters."""


class TransferHypothesisError(DomainError):
    """The exponent-transfer hypothesis fails; the message names the failed condition."""


class BudgetError(RuntimeError):
    """Requested computation exceeds the configured enumeration or memory budget."""


class ViolationError(RuntimeError):
    """A certified inequality failed numerically.

    The inequalities checked by this package are proven theorems, so a
    violation always signals an implementation bug, never a counterexample.
    The CLI maps this to exit code 2.
    """


def _check_integer(name: str, value, low: int, high: Optional[int] = None) -> None:
    """The one rule for an integer parameter: DomainError unless low <= value (<= high).

    An int or numpy integer passes; a bool (True is an int to Python), a
    float (even 2.0), a string or None does not, so a bad count or index is
    named at the public edge instead of failing deep in a run.
    """
    if not _is_integer(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if high is None and value < low:
        raise DomainError(f"{name} must be >= {low}, got {value!r}")
    if high is not None and not low <= value <= high:
        raise DomainError(f"{name} must lie in [{low}, {high}], got {value!r}")


def _is_integer(value) -> bool:
    """Whether value is an integer by `_check_integer`'s rule: an int or numpy integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_seed(seed) -> int:
    """The one seed rule: an integer in [0, 2^32) by `_is_integer`, else DomainError; returns it as an int.

    SeedSequence hashes an integer as 32-bit words, so [seed + 2^32, k]
    would hash like [seed, k + 1] and streams of different seeds collide.
    """
    if _is_integer(seed) and 0 <= seed < 2**32:
        return int(seed)
    raise DomainError(f"seed must be a non-negative integer below 2**32, got {seed!r}")


def _seed_source(seed):
    """What a stream is drawn from: a numpy SeedSequence or Generator as it is, else `_check_seed`.

    The library's own callers pass SeedSequences derived from a checked
    seed; a caller's integer goes through the one seed rule, and anything
    else (None, a negative, a float) raises DomainError there.
    """
    if isinstance(seed, (np.random.SeedSequence, np.random.Generator)):
        return seed
    return _check_seed(seed)


def _jsonable(value):
    """The one JSON rule for a result: `value` as plain, strict JSON data.

    A dataclass gives its fields in declaration order: a field whose
    metadata sets "json" to False is left out, and one that sets it to a
    string is renamed to that key.  Dicts keep their keys, tuples and lists
    become lists, an enum gives its value, NaN becomes None (JSON null) and
    an infinite float "inf" or "-inf", so `json.dumps` never writes NaN or
    Infinity.  Anything else is returned as it is.
    """
    if dataclasses.is_dataclass(value):
        out = {}
        for f in dataclasses.fields(value):
            key = f.metadata.get("json", f.name)
            if key is not False:
                out[key] = _jsonable(getattr(value, f.name))
        return out
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0.0 else "-inf")
    return value
