"""The benchmark's workloads: seeded streams of hlcert calls with correctness gates.

A workload is a deterministic stream of units; unit k depends only on
(seed, k).  Each unit certifies some tensors and reports what the gates
need.  The library is always reached through the `hlcert` package
namespace at call time, so the traced run sees every call the benchmark
makes.

Why these three (see also BENCHMARK.json):

* ascent_p4 -- `certify` at (m, n, p, lambda0) = (3, 3, 4, 1) with the CLI
  defaults.  Alternating ascent does over 90% of the work; no sign
  enumeration runs.
* chain_linf -- `verify_proof_chain` alternating a real Gaussian tensor
  (m=3, n=8: exact enumeration of 2^16 sign patterns, twice) and a complex
  Steinhaus tensor (m=3, n=3: 100k Monte-Carlo samples plus ascent).
* search_p4 -- `search_extremal` at (3, 2, 4, 1) with a large budget: the
  tensor layer and the hill-climb loop, no ascent, no enumeration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import hlcert
from hlcert import ScalarField
from hlcert.certify import report_to_json

EXACT_SLACK = 1e-12   # gate on inequality-link slacks of exactly enumerated chains


def derive_seed(*keys: int) -> int:
    """32-bit integer seed from (workload seed, unit index, ...)."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


@dataclass
class UnitResult:
    tensors: int
    failed: int
    canon: str                  # canonical output text, compared byte for byte
    best_ratio: float           # best conservative ratio lhs / certified upper
    gaps: List[float] = field(default_factory=list)   # certified upper / lower
    counters: Dict[str, int] = field(default_factory=dict)
    tensor: Optional[hlcert.FormTensor] = None          # kept for later gap checks


class Workload:
    name = ""
    unit_size = 1         # tensors per unit
    quick_unit_size = 1
    trace_units = 1       # fixed prefix of units that the traced run covers
    slice_units = 1       # units per throughput and best-ratio sample

    def __init__(self, quick: bool = False) -> None:
        self.size = self.quick_unit_size if quick else self.unit_size
        self.trace_units = self.slice_units if quick else type(self).trace_units

    def setup(self):
        raise NotImplementedError

    def unit(self, ctx, seed: int, k: int) -> UnitResult:
        raise NotImplementedError

    def gaps(self, ctx, seed: int, results: List[UnitResult]) -> List[float]:
        return [g for r in results for g in r.gaps]

    def failed_unit(self) -> UnitResult:
        """Stand-in for a unit that raised: all its tensors failed."""
        return UnitResult(tensors=self.size, failed=self.size, canon="error", best_ratio=0.0)


def _admissible(m: int, p: float, lambda0: float, field: ScalarField):
    exps = hlcert.exponents(m, p, lambda0, field)
    if not exps.admissible:
        raise hlcert.DomainError(f"(m={m}, p={p}, lambda0={lambda0}) is not admissible")
    return exps


class AscentP4(Workload):
    name = "ascent_p4"
    unit_size = 8           # certify trials per call
    quick_unit_size = 2
    trace_units = 16        # 128 trials

    M, N, P, LAMBDA0 = 3, 3, 4.0, 1.0

    def setup(self):
        return _admissible(self.M, self.P, self.LAMBDA0, ScalarField.REAL)

    def certify(self, seed: int, trials: int, jobs: int = 1):
        config = hlcert.TrialConfig(trials=trials, jobs=jobs, keep_trials=True)
        return hlcert.certify(
            self.M, self.N, self.P, self.LAMBDA0, ScalarField.REAL, config=config, seed=seed,
        )

    def unit(self, ctx, seed: int, k: int) -> UnitResult:
        report = self.certify(derive_seed(seed, k), self.size)
        rows = report.trial_rows
        return UnitResult(
            tensors=report.trials,
            failed=report.violations + report.inconclusive,
            canon=report_to_json(report),
            best_ratio=report.max_ratio_conservative,
            gaps=[r.upper / r.lower for r in rows],
            counters={"retries": sum(r.retried for r in rows), "trials": len(rows)},
        )


class ChainLinf(Workload):
    name = "chain_linf"
    trace_units = 64        # 32 real and 32 complex chains
    slice_units = 2         # one real and one complex chain per sample

    M, LAMBDA0 = 3, 1.5
    REAL_N, COMPLEX_N = 8, 3
    MC_SAMPLES = 100_000

    def setup(self):
        reg = hlcert.region(self.M, self.LAMBDA0)
        p = 0.5 * (reg.lower + reg.upper)
        return _admissible(self.M, p, self.LAMBDA0, ScalarField.REAL)

    def unit(self, ctx, seed: int, k: int) -> UnitResult:
        if k % 2 == 0:
            T = hlcert.generate(
                "gaussian", self.M, self.REAL_N, ScalarField.REAL,
                np.random.SeedSequence([seed, k]),
            )
            report = hlcert.verify_proof_chain(T, self.LAMBDA0, ctx.s, raise_on_failure=False)
            gaps: List[float] = []   # exact: norm_lower == norm_upper
            samples = 0
            ok = report.passed and all(
                link.slack >= -EXACT_SLACK for link in report.links if link.kind == "inequality"
            )
        else:
            T = hlcert.generate(
                "steinhaus", self.M, self.COMPLEX_N, ScalarField.COMPLEX,
                np.random.SeedSequence([seed, k]),
            )
            report = hlcert.verify_proof_chain(
                T, self.LAMBDA0, ctx.s, mc_samples=self.MC_SAMPLES,
                seed=derive_seed(seed, k), raise_on_failure=False,
            )
            gaps = [report.norm_upper / report.norm_lower]
            samples = self.MC_SAMPLES
            ok = report.passed
        lhs = report.links[-1].lhs   # overall_bound: the mixed sum itself
        return UnitResult(
            tensors=1,
            failed=0 if ok else 1,
            canon=json.dumps(report.to_jsonable(), sort_keys=True),
            best_ratio=lhs / report.norm_upper,
            gaps=gaps,
            counters={
                "mc_samples": samples,
                "link_failures": sum(not link.passed for link in report.links),
            },
        )


class SearchP4(Workload):
    name = "search_p4"
    unit_size = 5000        # candidate evaluations per search
    quick_unit_size = 50
    trace_units = 16

    M, N, P, LAMBDA0 = 3, 2, 4.0, 1.0

    def setup(self):
        return _admissible(self.M, self.P, self.LAMBDA0, ScalarField.REAL)

    def unit(self, ctx, seed: int, k: int) -> UnitResult:
        result = hlcert.search_extremal(
            self.M, self.N, self.P, self.LAMBDA0, ScalarField.REAL,
            budget=self.size, seed=derive_seed(seed, k),
        )
        canon = json.dumps(
            {
                "tensor": hlcert.tensor_to_json(result.tensor),
                "ratio": result.ratio_conservative,
                "accepted": result.accepted_steps,
                "evaluations": result.evaluations,
            },
            sort_keys=True,
        )
        return UnitResult(
            tensors=result.evaluations,
            failed=0 if result.ratio_conservative <= ctx.constant else result.evaluations,
            canon=canon,
            best_ratio=result.ratio_conservative,
            counters={"accepted": result.accepted_steps, "evaluations": result.evaluations},
            tensor=result.tensor,
        )

    def gaps(self, ctx, seed: int, results: List[UnitResult]) -> List[float]:
        # certified gap of each search's best tensor: the search's own upper
        # bound (coefficient mass) over an ascent lower bound, computed after
        # the timed loop so the measured path stays free of ascent
        out = []
        for k, r in enumerate(results):
            if r.tensor is None:   # the search raised
                continue
            est = hlcert.alternating_max(r.tensor, self.P, seed=derive_seed(seed, k, 1))
            out.append(hlcert.crude_upper(r.tensor, self.P) / est.lower)
        return out


WORKLOADS = {w.name: w for w in (AscentP4, ChainLinf, SearchP4)}

