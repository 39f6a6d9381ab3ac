"""End-to-end certification runs, extremal search, and lambda0 sweeps.

A certification run draws trial tensors, compares the mixed-norm left-hand
side against constant * ||T||, and classifies each trial as pass,
inconclusive (the norm sandwich straddles the threshold), or violation.
The underlying bound is a proven theorem, so violations always indicate an
implementation bug; the suite treats them as its primary self-diagnostic.
Every upper bound of ||T|| a trial is classified by is rounded outward: at
real p = inf the sign enumeration's, by `hlcert.norms._linf_bounds` (the
l_inf rule of the proof chain and `exact_linf_enum` too), elsewhere
`_interpolation_bounds`.  Only the search ranks by an unrounded value, the
float enumeration or the float Hoelder bound `_hoelder_bounds` (`_score`).
A lambda0 sweep certifies all its rows in one such run: each trial is drawn
and bounded once and scored against every row.  The extremal search scores
its tensors with `_score`, whose left-hand side (`_lhs`), ratio (`_ratio`)
and verdict (`_classify`) are the certification run's.

Trials are independent: each derives its own seed from (base seed, trial
index), so reports are byte-identical for a fixed (params, seed, jobs)
triple regardless of scheduling.  Every entry point here checks its seed by
the one rule of `hlcert.errors`: an integer in [0, 2^32), else DomainError.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ViolationError, _JsonResult, _check_integer, _check_seed
from .exponents import ExponentSet, exponents, region
from .norms import (
    _RESTARTS,
    _best_restarts,
    _exact_linf_stack,
    _hoelder_bounds,
    _interpolation_bounds,
    _linf_bounds,
    _root_count,
    alternating_max,  # noqa: F401  (kept as a module attribute: bench/tracer.py wraps it here)
    crude_upper,  # noqa: F401  (kept as a module attribute: bench/tracer.py wraps it here)
    exact_linf_enum,  # noqa: F401  (kept as a module attribute: bench/tracer.py wraps it here)
)
from .special import ScalarField
from .tensor import (
    _SIGNS,
    FormTensor,
    _check_kinds,
    _entry_count,
    _magnitudes,
    _mixed_norms_of_magnitudes,
    generate,
    mixed_norm,  # noqa: F401  (kept as a module attribute: bench/tracer.py wraps it here)
)

__all__ = [
    "TrialConfig",
    "TrialResult",
    "CertificationReport",
    "SearchResult",
    "SweepRow",
    "certify",
    "search_extremal",
    "sweep_lambda0",
    "report_to_json",
    "trials_to_csv",
    "sweep_to_csv",
]

RATIO_TOL = 1e-9  # relative tolerance of a verdict: violation when lhs > C * upper * (1 + tol)
BATCH_ELEMENTS = 2**11  # cap on the coefficients (n^m per trial) of an ascent batch
SEARCH_CHUNK = 1024  # search climb steps per chunk of random draws
SEARCH_BUDGET = 500  # search_extremal's default budget, and the CLI's --budget


@dataclass(frozen=True)
class TrialConfig:
    """Knobs of a certification run; the CLI's `verify` reads its defaults here.

    Every `certify` and `sweep_lambda0` run passes through this check, so a
    bad setting raises DomainError before any work; `certify` also refuses
    a kind its field cannot hold ('steinhaus' on the real field) before
    any batch.  The ascent's restart count (32) and convergence rule are
    not settings but private constants of `hlcert.norms`: each trial runs
    `_RESTARTS` restarts, each to its own convergence (`_best_restarts`).
    """

    trials: int = 1000
    kinds: Tuple[str, ...] = ("gaussian", "signs")  # cycled per trial index
    jobs: int = 1
    keep_trials: bool = False

    def __post_init__(self) -> None:
        _check_kinds(self.kinds)
        _check_integer("trials", self.trials, 1)
        _check_integer("jobs", self.jobs, 1)


@dataclass(frozen=True)
class TrialResult:
    index: int
    kind: str
    seed_entropy: int
    lhs: float
    lower: float
    upper: float
    ratio_conservative: float  # lhs / upper, a certified lower bound on the best constant
    ratio_empirical: float     # lhs / lower, optimistic
    classification: str        # "pass" | "inconclusive" | "violation"
    retried: bool


@dataclass(frozen=True)
class CertificationReport(_JsonResult):
    m: int
    n: int
    p: float
    lambda0: float
    field: ScalarField
    s: float
    eta1: float
    constant: float
    extrapolated: bool
    trials: int
    violations: int
    inconclusive: int
    max_ratio_conservative: float
    max_ratio_empirical: float
    seed: int
    jobs: int
    # elapsed_seconds is wall-clock noise, left out of the JSON so reports
    # with identical (params, seed, jobs) are byte-identical
    elapsed_seconds: float = dataclass_field(metadata={"json": False})
    trial_rows: Tuple[TrialResult, ...] = dataclass_field(default=(), metadata={"json": False})


def report_to_json(report: CertificationReport) -> str:
    return json.dumps(report.to_jsonable(), sort_keys=True)


def trials_to_csv(rows: Sequence[TrialResult]) -> str:
    """Per-trial CSV: trial, kind, seed, ratios, classification, retried."""
    out = io.StringIO()
    out.write("trial,kind,seed,ratio_conservative,ratio_empirical,classification,retried\n")
    for r in rows:
        out.write(
            f"{r.index},{r.kind},{r.seed_entropy},{_csv_cell(r.ratio_conservative)},"
            f"{_csv_cell(r.ratio_empirical)},{r.classification},{int(r.retried)}\n"
        )
    return out.getvalue()


def _admissible_exponents(
    m: int, n: int, p: float, lambda0: float, field: ScalarField
) -> ExponentSet:
    exps = exponents(m, p, lambda0, field)
    if not exps.admissible:
        reg = region(m, lambda0)
        raise DomainError(
            f"(m={m}, p={p}, lambda0={lambda0}) is inadmissible: "
            f"need lambda0*m = {reg.lower:g} < p <= {reg.upper:g}"
        )
    _check_integer("n", n, 1)
    return exps


def _classify(lhs: float, c_lower: float, c_upper: float) -> str:
    """The verdict on lhs against c_lower <= C ||T|| <= c_upper, within RATIO_TOL read per call."""
    # an overflowed or NaN side proves nothing either way: fail loudly rather
    # than report it as a violation or as inconclusive
    if not all(math.isfinite(x) for x in (lhs, c_lower, c_upper)):
        raise DomainError(
            f"cannot classify non-finite values: lhs={lhs!r}, "
            f"c_lower={c_lower!r}, c_upper={c_upper!r}"
        )
    if c_upper <= 0.0:
        return "pass" if lhs <= RATIO_TOL else "violation"
    if lhs / c_upper > 1.0 + RATIO_TOL:
        return "violation"
    if c_lower > 0.0 and lhs / c_lower <= 1.0 + RATIO_TOL:
        return "pass"
    if c_lower <= 0.0 and lhs <= RATIO_TOL:
        return "pass"
    return "inconclusive"


def _real_linf(exps: ExponentSet) -> bool:
    """Whether `_score` and `certify` bound a tensor by its sign vertices: real forms on l_inf."""
    return math.isinf(exps.p) and exps.field is ScalarField.REAL


def _score(stack: np.ndarray, exps: ExponentSet) -> Tuple[np.ndarray, np.ndarray]:
    """(lhs, upper) of every tensor of a stack (K,) + (n,)*m, as two (K,) arrays.

    The scorer of `search_extremal`.  lhs is the largest mixed norm over the
    fixed index (the strictest reading of the left-hand side), the lhs of
    every `certify` trial too (`_lhs`).  upper is a ranking value of ||T||,
    not rounded outward: the float sign enumeration for real p = inf
    (`_exact_linf_stack`, one pass over the whole stack, within rounding of
    the l_inf norm), otherwise the float Hoelder bound `_hoelder_bounds`
    = ||coeff||_{p'}, p' = p/(p-1) (the coefficient mass at p = inf), which
    `crude_upper` rounds outward.  At finite p, lhs <= ||coeff||_s <=
    ||coeff||_{p'}, since the outer exponent eta1 >= s >= 2 > p', so
    lhs / upper <= 1.  A
    tensor's lhs and upper bound are the ones it gets alone, in any stack.
    The magnitudes |stack| and each tensor's largest one are taken once
    (`_magnitudes`) and feed the finiteness check, the mixed norms and the
    bound; the mixed norms scale each power sum by its own largest term, so
    a large s or eta1 (about 3001 at m = 3, p = 3.001, lambda0 = 1)
    neither overflows nor underflows.  The search ranks by this value, as
    its throughput lives in this pass; `certify` bounds with `_linf_bounds`
    at real p = inf, this enumeration rounded outward, and elsewhere with
    `_interpolation_bounds`, which is never above this bound rounded outward.
    Coefficients must be finite, a complex modulus included (DomainError,
    the rule of `FormTensor`).
    """
    mags, top = _magnitudes(stack)
    lhs = _lhs(mags, stack.shape, exps)
    if _real_linf(exps):
        upper = _exact_linf_stack(stack)[0]
    else:
        upper = _hoelder_bounds(mags, top, exps.p)
    return lhs, upper


def _lhs(mags: np.ndarray, shape: Tuple[int, ...], exps: ExponentSet) -> np.ndarray:
    """`_score`'s lhs of a stack of `shape` from its `_magnitudes`: the largest mixed norm."""
    return _mixed_norms_of_magnitudes(mags, shape, exps.s, exps.eta1).max(axis=1)


def _ratio(lhs: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """lhs / bound elementwise; a zero bound gives 1.0 where lhs is 0 and inf elsewhere."""
    positive = bound > 0.0
    if positive.all():   # the common case, in two fewer numpy calls
        return lhs / bound
    out = np.where(lhs == 0.0, 1.0, math.inf)
    np.divide(lhs, bound, out=out, where=positive)
    return out


def _run_batch(args) -> List[List[TrialResult]]:
    """Trials start..stop-1 of a run, scored against every row: one list of trial rows per row.

    The rows are `ExponentSet`s that share (m, p, field), one per lambda0.
    A trial's tensor, stream and bounds never involve lambda0, so the batch
    is drawn once, its `_magnitudes` taken once, and its bounds computed
    once: at real p = inf the l_inf sandwich of one sign enumeration of the
    whole stack (`_linf_bounds`: the float vertex maximum below, rounded
    outward above); elsewhere the stage 1 sandwich of the ascent
    (`_best_restarts`), whose upper bound is `_interpolation_bounds` of the
    whole batch, at most the Hoelder bound rounded outward.  Then each row
    does what a one-row run does: its lhs (`_lhs`, `_score`'s), its verdicts
    (`_classify` against its constant), and stage 2 on the trials it alone
    finds inconclusive: the same bound with the l_inf side also capped by
    the root enumeration at K = `_root_count(m, n)` roots of unity (one
    call for all of them, `retried`; none if no K fits).  Every step gives
    a trial the values it gets alone, so its row does not depend on the
    batch or on the other rows.
    """
    rows, n, seed, cfg, start, stop = args
    m, p, field = rows[0].m, rows[0].p, rows[0].field
    trials = range(start, stop)
    streams = [np.random.SeedSequence([seed, t]) for t in trials]
    spawned = [ss.spawn(2) for ss in streams]   # generate, norm
    kinds = [cfg.kinds[t % len(cfg.kinds)] for t in trials]
    stack = np.stack([
        generate(kind, m, n, field, gen_ss).coeffs for kind, (gen_ss, _) in zip(kinds, spawned)
    ])
    mags = _magnitudes(stack)[0]
    if _real_linf(rows[0]):
        lower, upper, _ = _linf_bounds(stack, _SIGNS)
    else:
        lower, upper = _best_restarts(stack, p, _RESTARTS, [ss for _, ss in spawned])[:2]
    entropy = [int(ss.generate_state(1)[0]) for ss in streams]
    roots = _root_count(m, n) if math.isfinite(p) else None
    results = []
    for exps in rows:
        C = exps.constant
        lhs = _lhs(mags, stack.shape, exps)
        lo, up = lower, upper
        classes = [_classify(lhs[b], C * lo[b], C * up[b]) for b in range(len(stack))]
        retried = [c == "inconclusive" and roots is not None for c in classes]
        if any(retried):
            redo = np.flatnonzero(retried)
            up = upper.copy()
            up[redo] = _interpolation_bounds(stack[redo], p, roots)
            lo = np.minimum(lower, up)
            # the other trials keep their bounds, and so their verdicts
            classes = [_classify(lhs[b], C * lo[b], C * up[b]) for b in range(len(stack))]
        conservative, empirical = _ratio(lhs, up), _ratio(lhs, lo)
        results.append([
            TrialResult(
                index=t, kind=kinds[b], seed_entropy=entropy[b],
                lhs=float(lhs[b]), lower=float(lo[b]), upper=float(up[b]),
                ratio_conservative=float(conservative[b]), ratio_empirical=float(empirical[b]),
                classification=classes[b], retried=retried[b],
            )
            for b, t in enumerate(trials)
        ])
    return results


def _run_batches(
    rows: List[ExponentSet], n: int, seed: int, cfg: TrialConfig
) -> Iterator[List[List[TrialResult]]]:
    """Every `_run_batch` result of a run over `rows`, in trial order.

    Checks, before any batch, that each of `cfg.kinds` is one the rows'
    field holds and that n^m is within `hlcert.tensor.MAX_ENTRIES`
    (`_entry_count`).  A batch holds as many consecutive trials as keep
    their coefficients, n^m each, within BATCH_ELEMENTS (at least one
    trial; fewer when jobs > 1, so that every worker gets a batch): with
    the 32 restarts of each trial, at most 2^16 coefficients are gathered
    per slot product.  jobs > 1 hands whole batches to one pool of worker processes
    for the run; the results come back in trial order, one batch at a time.
    Starting the pool costs about 0.1 s, so on 2 cores jobs = 2 slows a
    (3, 3, 4, 1) `verify` below about 250 trials and pays off from about
    500: whole process, median of 5 alternated runs, 0.43 s serial against
    0.50 s at 128 trials, 0.51 against 0.61 s at 250, 0.59 against 0.42 s
    at 500, 0.62 against 0.49 s at 1000 and 2.8 against 1.6 s at 4000.
    """
    _check_kinds(cfg.kinds, rows[0].field)
    per_batch = max(1, BATCH_ELEMENTS // _entry_count(rows[0].m, n))
    size = min(per_batch, math.ceil(cfg.trials / cfg.jobs))
    tasks = [(rows, n, seed, cfg, b, min(b + size, cfg.trials)) for b in range(0, cfg.trials, size)]
    if cfg.jobs > 1:
        # imported here: the process-pool machinery costs about 2 MB and
        # 15 ms at import, which serial runs never need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            yield from pool.map(_run_batch, tasks)
    else:
        yield from map(_run_batch, tasks)


def certify(
    m: int,
    n: int,
    p: float,
    lambda0: float,
    field: ScalarField = ScalarField.REAL,
    config: Optional[TrialConfig] = None,
    seed: int = 0,
) -> CertificationReport:
    """Certify the mixed-norm bound on `trials` random forms.

    Per trial: draw a tensor (kinds cycled per index), take its lhs, the
    maximum mixed norm over the fixed index (`_lhs`, the left-hand side of
    `_score`, which `search_extremal` scores with), and bound ||T||: at
    real p = inf by the sign enumeration (`_linf_bounds`: its float value
    below, rounded outward above, by about (n^(m-1) + n + 8m) * 2^-53 times
    the coefficient mass), otherwise by the alternating ascent for the
    lower bound and for the upper bound the certified interpolation bound
    min(Hoelder, sigma^(2/p) * U^(1-2/p)) of `_interpolation_bounds`
    (stage 1, `crude_upper(T, p)`: the Hoelder bound ||coeff||_{p'}
    rounded outward unless 2 <= p < inf, the coefficient mass at p = inf),
    which also caps the ascent.  `_classify` gives the verdict: a violation
    when lhs > C * upper * (1 + RATIO_TOL), relative to the bound; the
    bound's rounding error, about n^m units in the last place, is far
    inside that tolerance.  A zero bound gives ratio 1.0 for a zero lhs
    (inf otherwise).  A finite-p trial still inconclusive gets stage 2:
    the same bound with its l_inf side also capped by the root enumeration
    at K = `_root_count(m, n)` roots of unity (none past K = 4 at 2^18
    patterns), and the row is marked `retried`.  With a right constant no
    trial is inconclusive, so stage 2 does not run.

    The one-row case of the run `sweep_lambda0` makes over every row
    (`_run_batches`, `_run_batch`): trials run in batches of consecutive
    indices, each batch drawn, bounded and scored in a few vectorized calls
    (the restarts of every trial in a batch ascend together as one `_ascend`
    stack).  Each trial's scores, bounds and restarts are the ones it gets
    alone, so the trial rows are the same for any batching and any jobs.
    A serial run (jobs=1) is fast; jobs > 1 hands whole batches to worker
    processes and is optional.  jobs < 1 raises DomainError.
    """
    seed = _check_seed(seed)
    cfg = config or TrialConfig()
    exps = _admissible_exponents(m, n, p, lambda0, field)
    start = time.perf_counter()
    results = [row for batch in _run_batches([exps], n, seed, cfg) for row in batch[0]]
    elapsed = time.perf_counter() - start
    return CertificationReport(
        m=m, n=n, p=p, lambda0=lambda0, field=field,
        s=exps.s, eta1=exps.eta1, constant=exps.constant,
        extrapolated=exps.extrapolated,
        trials=cfg.trials,
        violations=sum(r.classification == "violation" for r in results),
        inconclusive=sum(r.classification == "inconclusive" for r in results),
        max_ratio_conservative=max(r.ratio_conservative for r in results),
        max_ratio_empirical=max(r.ratio_empirical for r in results),
        seed=seed,
        jobs=cfg.jobs,
        elapsed_seconds=elapsed,
        trial_rows=tuple(results) if cfg.keep_trials else (),
    )


@dataclass(frozen=True)
class SearchResult:
    tensor: FormTensor
    ratio_conservative: float
    evaluations: int
    accepted_steps: int


def search_extremal(
    m: int,
    n: int,
    p: float,
    lambda0: float,
    field: ScalarField = ScalarField.REAL,
    budget: int = SEARCH_BUDGET,
    seed: int = 0,
) -> SearchResult:
    """Hill-climb tensors to maximize LHS / upper(||T||).

    Each climb step adds step * (a standard normal) to one random
    coefficient of the current tensor and keeps the candidate if its ratio
    is higher.  20 rejections in a row halve the step; when the step falls
    below 1e-3 the climb restarts from a fresh Gaussian tensor with step 1.
    `budget` counts the tensors scored for the climb: climb steps and
    restart tensors.  The seed tensor is scored outside the budget (budget
    0 reports its ratio).  With a nonzero budget the first evaluation goes
    to the single-coefficient tensor, the known ratio-1 witness, so the
    result is at least 1.  `evaluations` reports how many of the budget ran.

    Climb step t draws a flat index and a normal (two when complex, for the
    real and imaginary parts) from SeedSequence([seed, 1]), in chunks of
    SEARCH_CHUNK steps, so its draws depend only on (seed, t).  Every block
    of candidates starts after an acceptance, a halving or a restart, and
    holds the candidates left at the current step: min(20, budget left),
    candidate i being the one the climb would build if the i before it
    were rejected.  All are scored in one `_score` pass; the first one with
    a higher ratio is kept at the same step and the ones after it are
    discarded (they are not counted in `evaluations`), while 20 rejections
    halve the step.  `_score` gives each candidate the ratio it gets alone,
    so the result is the one a climb scoring one candidate at a time gives.

    Candidates are scored by `_score`, with the lhs of `certify`: the ratio
    is lhs / upper(||T||), 1.0 for a zero tensor, with upper the float
    sign enumeration at real p = inf and the Hoelder bound ||coeff||_{p'}
    otherwise.  At finite p the ratio stays <= 1, since lhs <= ||coeff||_s
    <= ||coeff||_{p'} for s >= 2 > p'.  The resulting ratio is an empirical
    lower bound on the best constant and can never exceed the certified
    constant C; by `certify`'s verdict, a best ratio above C * (1 +
    RATIO_TOL) raises ViolationError (a bug).
    """
    seed = _check_seed(seed)
    _check_integer("budget", budget, 0)
    exps = _admissible_exponents(m, n, p, lambda0, field)

    def ratios(stack: np.ndarray) -> np.ndarray:
        return _ratio(*_score(stack, exps))

    start_kind = "signs" if field is ScalarField.REAL else "steinhaus"
    current = generate(start_kind, m, n, field, np.random.SeedSequence([seed, 2])).coeffs
    current_ratio = float(ratios(current[None])[0])
    best, best_ratio = current, current_ratio

    draws = _ClimbDraws(seed, n**m, field is ScalarField.COMPLEX)
    rows = np.arange(20)
    step = 1.0
    accepted = 0
    restarts = 0
    spent = 0
    taken = 0   # climb steps so far: the next step's draws are draws.take(taken, ...)
    if budget > 0:
        unit = np.zeros((n,) * m, dtype=current.dtype)
        unit.flat[0] = 1.0
        baseline_ratio = float(ratios(unit[None])[0])
        spent = 1
        if baseline_ratio > best_ratio:
            best, best_ratio = unit, baseline_ratio
    while spent < budget:
        # the candidates left at this step: 20 rejections halve it
        K = min(20, budget - spent)
        index, normal = draws.take(taken, K)
        stack = np.repeat(current[None], K, axis=0)
        stack.reshape(K, -1)[rows[:K], index] += step * normal
        block_ratios = ratios(stack)
        higher = block_ratios > current_ratio
        i = int(higher.argmax())   # the first higher candidate, or 0 when none is
        used = i + 1 if higher[i] else K
        spent += used
        taken += used
        if higher[i]:
            # keep the first higher candidate; the ones after it are discarded
            accepted += 1
            current, current_ratio = stack[i], float(block_ratios[i])
            if current_ratio > best_ratio:
                best, best_ratio = current, current_ratio
            continue
        # K rejections: 20 halve the step, fewer end the budget
        step *= 0.5
        if step < 1e-3 and spent < budget:
            restarts += 1
            current = generate(
                "gaussian", m, n, field, np.random.SeedSequence([seed, 3, restarts])
            ).coeffs
            current_ratio = float(ratios(current[None])[0])
            spent += 1
            step = 1.0
    # certify's verdict on the best ratio: lhs against a form of norm 1
    if _classify(best_ratio, exps.constant, exps.constant) == "violation":
        raise ViolationError(
            f"extremal search found ratio {best_ratio!r} above the certified "
            f"constant {exps.constant!r}: implementation bug"
        )
    return SearchResult(
        tensor=FormTensor(m=m, n=n, field=field, coeffs=best),
        ratio_conservative=best_ratio,
        evaluations=spent,
        accepted_steps=accepted,
    )


class _ClimbDraws:
    """The random draws of every climb step of `search_extremal`.

    Step t draws a flat coefficient index and a standard normal (complex
    fields: a pair, the real and imaginary parts).  They come from
    default_rng(SeedSequence([seed, 1])) in chunks of SEARCH_CHUNK steps,
    each chunk's indices first and then its normals, so step t's draws
    depend only on (seed, t).
    """

    def __init__(self, seed: int, size: int, complex_field: bool) -> None:
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.size = size
        self.complex_field = complex_field
        self.start = 0                       # step of index[0] and normal[0]
        self.index = np.empty(0, dtype=np.int64)
        self.normal = np.empty(0, dtype=np.complex128 if complex_field else np.float64)

    def take(self, t: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """(flat indices, normals) of steps t .. t + count - 1; t never decreases."""
        while self.start + len(self.index) < t + count:
            index = self.rng.integers(0, self.size, SEARCH_CHUNK)
            if self.complex_field:
                z = self.rng.standard_normal((SEARCH_CHUNK, 2))
                normal = z[:, 0] + 1j * z[:, 1]
            else:
                normal = self.rng.standard_normal(SEARCH_CHUNK)
            keep = t - self.start
            self.index = np.concatenate([self.index[keep:], index])
            self.normal = np.concatenate([self.normal[keep:], normal])
            self.start = t
        lo = t - self.start
        return self.index[lo : lo + count], self.normal[lo : lo + count]


@dataclass(frozen=True)
class SweepRow(_JsonResult):
    lambda0: float
    s: float
    eta1: float
    constant: float
    admissible: bool
    extrapolated: bool
    max_ratio_conservative: Optional[float]


def sweep_lambda0(
    m: int,
    p: float,
    n: int,
    field: ScalarField = ScalarField.REAL,
    grid: Sequence[float] = (),
    seed: int = 0,
    config: Optional[TrialConfig] = None,
) -> List[SweepRow]:
    """Tabulate exponents, constants, and admissibility over a lambda0 grid.

    Inadmissible rows are emitted rather than skipped (singular pieces as
    NaN).  With a config, every admissible row is certified with that
    config, as it is, and reports its conservative max ratio, the one
    `certify` at its lambda0 reports; without one the sweep is the table
    only.  The admissible rows share one run (`_run_batches`): each trial is
    drawn and bounded once and scored against every row, and each batch is
    folded into the rows' running maxima, so the sweep holds one batch of
    trial rows at a time.
    """
    seed = _check_seed(seed)
    _check_integer("n", n, 1)
    table = [exponents(m, p, lam, field, strict=False) for lam in grid]
    scored = [i for i, exps in enumerate(table) if exps.admissible] if config is not None else []
    best = {i: -math.inf for i in scored}
    if scored:
        for batch in _run_batches([table[i] for i in scored], n, seed, config):
            for i, trial_rows in zip(scored, batch):
                best[i] = max(best[i], *(r.ratio_conservative for r in trial_rows))
    return [
        SweepRow(
            lambda0=exps.lambda0, s=exps.s, eta1=exps.eta1, constant=exps.constant,
            admissible=exps.admissible, extrapolated=exps.extrapolated,
            max_ratio_conservative=best.get(i),
        )
        for i, exps in enumerate(table)
    ]


def _csv_cell(x) -> str:
    """The one CSV cell rule: a null (None or NaN) is an empty cell, a float its repr."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return repr(x) if isinstance(x, float) else str(x)


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    out = io.StringIO()
    out.write("lambda0,s,eta1,constant,admissible,extrapolated,max_ratio_conservative\n")
    cell = _csv_cell
    for r in rows:
        out.write(
            f"{cell(r.lambda0)},{cell(r.s)},{cell(r.eta1)},{cell(r.constant)},"
            f"{int(r.admissible)},{int(r.extrapolated)},{cell(r.max_ratio_conservative)}\n"
        )
    return out.getvalue()
