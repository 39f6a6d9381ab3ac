"""In-memory span tracer that wraps hlcert's public functions from outside.

Each wrapped call records a span (name, start, end, parent).  A function is
wrapped in the module namespace where its callers look it up, so a call made
inside the library is seen exactly when it crosses that module boundary.
Nothing in hlcert is edited: `Tracer.install` swaps module attributes and
`Tracer.restore` puts the originals back.

Span names are `<defining module>.<function>`, e.g. `norms.alternating_max`,
so the same function wrapped in several namespaces aggregates under one name.
A layer's self time is its span's duration minus the time covered by its
child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

ROOT_SPAN = "bench.workload"

# (module, attribute) pairs wrapped by the traced run.  The package namespace
# covers the benchmark's own calls; the submodule namespaces cover the calls
# hlcert makes between its layers.
WRAP_POINTS: Tuple[Tuple[str, str], ...] = (
    ("hlcert", "certify"),
    ("hlcert", "search_extremal"),
    ("hlcert", "verify_proof_chain"),
    ("hlcert", "generate"),
    ("hlcert", "exponents"),
    ("hlcert.certify", "generate"),
    ("hlcert.certify", "mixed_norm"),
    ("hlcert.certify", "alternating_max"),
    ("hlcert.certify", "exact_linf_enum"),
    ("hlcert.certify", "crude_upper"),
    ("hlcert.certify", "exponents"),
    ("hlcert.norms", "dual_norm_linear"),
    ("hlcert.norms", "contract_trailing_signs"),
    ("hlcert.norms", "iter_sign_blocks"),
    ("hlcert.norms", "crude_upper"),
    ("hlcert.chaos", "exact_linf_enum"),
    ("hlcert.chaos", "alternating_max"),
    ("hlcert.chaos", "crude_upper"),
    ("hlcert.chaos", "contract_trailing_signs"),
    ("hlcert.chaos", "iter_sign_blocks"),
    ("hlcert.chaos", "khinchin_A"),
    ("hlcert.exponents", "khinchin_A"),
)

# Functions that return generators: the work happens on iteration, so each
# `next` is timed as its own span and the yielded blocks are counted.
GENERATORS = frozenset({"iter_sign_blocks"})


def span_name(fn: Callable) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        # span rows: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._saved: List[Tuple[object, str, Callable]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- wrapping -----------------------------------------------------------

    def _wrap_call(self, fn: Callable) -> Callable:
        name = span_name(fn)
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(self, self.spans[index][3], result)
            return result

        return wrapper

    def _wrap_generator(self, fn: Callable) -> Callable:
        name = span_name(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            while True:
                index = self._open(name)
                try:
                    block = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                self.counts["tensor.sign_blocks"] += 1
                self.counts["tensor.patterns"] += int(block.shape[0])
                yield block

        return wrapper

    def install(self, points: Iterable[Tuple[str, str]] = WRAP_POINTS) -> None:
        for module_name, attr in points:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if attr in GENERATORS:
                wrapped = self._wrap_generator(original)
            else:
                wrapped = self._wrap_call(original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- aggregation --------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Calls of generator functions count generator creations; their spans
        are the individual `next` calls.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[i]
        for key, value in self.counts.items():
            if key.endswith(".calls"):
                out[key[: -len(".calls")]]["calls"] = value
        return dict(out)


def _observe_alternating_max(tracer: Tracer, parent: int, est) -> None:
    tracer.counts["norms.alternating_max.restarts"] += est.restarts
    tracer.counts["norms.alternating_max.results"] += 1
    if not est.converged:
        tracer.counts["norms.alternating_max.nonconverged"] += 1


def _observe_dual_norm(tracer: Tracer, parent: int, result) -> None:
    # ascent sweeps call dual_norm_linear once per slot from alternating_max
    if parent >= 0 and tracer.spans[parent][0] == "norms.alternating_max":
        tracer.counts["norms.ascent_dual_calls"] += 1


_OBSERVERS = {
    "norms.alternating_max": _observe_alternating_max,
    "norms.dual_norm_linear": _observe_dual_norm,
}
