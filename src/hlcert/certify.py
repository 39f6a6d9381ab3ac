"""End-to-end certification runs, extremal search, and lambda0 sweeps.

A certification run draws trial tensors, compares the mixed-norm left-hand
side against constant * ||T||, and classifies each trial as pass,
inconclusive (the norm sandwich straddles the threshold), or violation.
The underlying bound is a proven theorem, so violations always indicate an
implementation bug; the suite treats them as its primary self-diagnostic.
The extremal search scores its tensors with the same scorer (`_score`),
ratio (`_ratio`) and verdict (`_classify`).

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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ViolationError, _check_integer, _check_seed, _jsonable
from .exponents import ExponentSet, exponents
from .norms import (
    _best_restarts,
    _check_ascent_settings,
    _exact_linf_stack,
    _hoelder_bounds,
    _interpolation_bounds,
    _root_count,
    alternating_max,  # noqa: F401  (kept as a module attribute: bench/tracer.py wraps it here)
    crude_upper,  # noqa: F401  (kept as a module attribute: bench/tracer.py wraps it here)
    exact_linf_enum,  # noqa: F401  (kept as a module attribute: bench/tracer.py wraps it here)
)
from .special import ScalarField
from .tensor import (
    FormTensor,
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
BATCH_ELEMENTS = 2**16  # cap on restarts * n^m per ascent batch of trials
SEARCH_BLOCK = 32  # search candidates scored per vectorized pass
SEARCH_CHUNK = 1024  # search climb steps per chunk of random draws


@dataclass(frozen=True)
class TrialConfig:
    """Knobs of a certification run; defaults match the CLI.

    Every `certify` and `sweep_lambda0` run passes through this check, so a
    bad setting raises DomainError before any work.
    """

    trials: int = 1000
    kinds: Tuple[str, ...] = ("gaussian", "signs")  # cycled per trial index
    restarts: int = 32
    max_iters: int = 500
    tol: float = 1e-10
    jobs: int = 1
    keep_trials: bool = False

    def __post_init__(self) -> None:
        if not self.kinds:
            raise DomainError("kinds must name at least one generator kind")
        _check_integer("trials", self.trials, 1)
        _check_ascent_settings(self.restarts, self.max_iters, self.tol)
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
class CertificationReport:
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

    def to_jsonable(self) -> dict:
        return _jsonable(self)


def report_to_json(report: CertificationReport) -> str:
    return json.dumps(report.to_jsonable(), sort_keys=True)


def trials_to_csv(rows: Sequence[TrialResult]) -> str:
    """Per-trial CSV: trial, kind, seed, ratios, classification, retried."""
    out = io.StringIO()
    out.write("trial,kind,seed,ratio_conservative,ratio_empirical,classification,retried\n")
    for r in rows:
        out.write(
            f"{r.index},{r.kind},{r.seed_entropy},{r.ratio_conservative!r},"
            f"{r.ratio_empirical!r},{r.classification},{int(r.retried)}\n"
        )
    return out.getvalue()


def _admissible_exponents(
    m: int, n: int, p: float, lambda0: float, field: ScalarField
) -> ExponentSet:
    exps = exponents(m, p, lambda0, field)
    if not exps.admissible:
        from .exponents import region

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


def _exact_bound(exps: ExponentSet) -> bool:
    """Whether `_score`'s upper bound is ||T|| itself: real forms on l_inf."""
    return math.isinf(exps.p) and exps.field is ScalarField.REAL


def _score(stack: np.ndarray, exps: ExponentSet) -> Tuple[np.ndarray, np.ndarray]:
    """(lhs, upper) of every tensor of a stack (K,) + (n,)*m, as two (K,) arrays.

    The one scorer of a trial tensor against the bound, for `certify` and
    `search_extremal`.  lhs is the largest mixed norm over the fixed index
    (the strictest reading of the left-hand side).  upper bounds ||T||: the
    exact l_inf norm for real p = inf (`_exact_linf_stack`, one sign
    enumeration of the whole stack), otherwise the Hoelder bound
    `crude_upper(T, p)` = ||coeff||_{p'}, p' = p/(p-1) (the coefficient mass
    at p = inf).  At finite p, lhs <= ||coeff||_s <= ||coeff||_{p'}, since
    the outer exponent eta1 >= s >= 2 > p', so lhs / upper <= 1.  A
    tensor's lhs and upper bound are the ones it gets alone, in any stack.
    The magnitudes |stack| and each tensor's largest one are taken once
    (`_magnitudes`) and feed the finiteness check, the mixed norms and the
    bound; the mixed norms scale each power sum by its own largest term, so
    a large s or eta1 (about 3001 at m = 3, p = 3.001, lambda0 = 1)
    neither overflows nor underflows.  The search ranks by this bound, as
    its throughput lives in this pass; `certify` tightens it per trial with
    `_interpolation_bounds`.
    Coefficients must be finite, a complex modulus included (DomainError,
    the rule of `FormTensor`).
    """
    mags, top = _magnitudes(stack)
    lhs = _mixed_norms_of_magnitudes(mags, stack.shape, exps.s, exps.eta1).max(axis=1)
    if _exact_bound(exps):
        upper = _exact_linf_stack(stack)[0]
    else:
        upper = _hoelder_bounds(mags, top, exps.p)
    return lhs, upper


def _ratio(lhs: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """lhs / bound elementwise; a zero bound gives 1.0 where lhs is 0 and inf elsewhere."""
    positive = bound > 0.0
    if positive.all():   # the common case, in two fewer numpy calls
        return lhs / bound
    out = np.where(lhs == 0.0, 1.0, math.inf)
    np.divide(lhs, bound, out=out, where=positive)
    return out


def _run_batch(args) -> List[TrialResult]:
    """Trials start..stop-1 of a run: generate, score, bound, one ascent, classify, stage 2.

    The batch is scored by one `_score` call.  Off real p = inf, the ascent
    (`_best_restarts`) also gives the stage 1 bound, `_interpolation_bounds`
    of the whole batch, in place of the scorer's Hoelder bound; trials still
    inconclusive after it get the same bound with the l_inf side also capped
    by the root enumeration at K = `_root_count(m, n)` roots of unity (stage
    2, `retried`, one call for all of them; none if no K fits).  Every step
    gives a trial the values it gets alone, so its row does not depend on
    the batch.
    """
    exps, n, seed, cfg, start, stop = args
    C = exps.constant
    trials = range(start, stop)
    streams = [np.random.SeedSequence([seed, t]) for t in trials]
    spawned = [ss.spawn(2) for ss in streams]   # generate, norm
    kinds = [cfg.kinds[t % len(cfg.kinds)] for t in trials]
    stack = np.stack([
        generate(kind, exps.m, n, exps.field, gen_ss).coeffs
        for kind, (gen_ss, _) in zip(kinds, spawned)
    ])
    lhs, upper = _score(stack, exps)
    if _exact_bound(exps):
        lower = upper.copy()
    else:
        lower, upper = _best_restarts(
            stack, exps.p, cfg.restarts, cfg.max_iters, cfg.tol,
            [norm_ss for _, norm_ss in spawned],
        )[:2]
    classes = [_classify(lhs[b], C * lower[b], C * upper[b]) for b in range(len(stack))]

    retried = [False] * len(stack)
    redo = [b for b, c in enumerate(classes) if c == "inconclusive"]
    roots = _root_count(exps.m, n)
    if redo and math.isfinite(exps.p) and roots is not None:
        upper[redo] = _interpolation_bounds(stack[redo], exps.p, roots)
        lower[redo] = np.minimum(lower[redo], upper[redo])
        for b in redo:
            classes[b] = _classify(lhs[b], C * lower[b], C * upper[b])
            retried[b] = True

    conservative, empirical = _ratio(lhs, upper), _ratio(lhs, lower)
    return [
        TrialResult(
            index=t,
            kind=kinds[b],
            seed_entropy=int(streams[b].generate_state(1)[0]),
            lhs=float(lhs[b]),
            lower=float(lower[b]),
            upper=float(upper[b]),
            ratio_conservative=float(conservative[b]),
            ratio_empirical=float(empirical[b]),
            classification=classes[b],
            retried=retried[b],
        )
        for b, t in enumerate(trials)
    ]


def _batch_trials(rows: int, n: int, m: int) -> int:
    """Trials per ascent batch: as many as keep rows * n^m <= BATCH_ELEMENTS, at least one."""
    return max(1, BATCH_ELEMENTS // (rows * n**m))


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

    Per trial: draw a tensor (kinds cycled per index) and score it with
    `_score`, the scorer `search_extremal` uses: lhs is the maximum mixed
    norm over the fixed index, upper bounds ||T|| (exact sign enumeration
    for real p = inf, which is also the lower bound; otherwise the Hoelder
    bound `crude_upper(T, p)` = ||coeff||_{p'}, the coefficient mass at
    p = inf, with an alternating ascent for the lower bound).  At finite p
    the upper bound is then tightened to min(Hoelder, sigma^(2/p) *
    U^(1-2/p)), the certified interpolation bound of
    `_interpolation_bounds` (stage 1), which also caps the ascent.
    `_classify` gives the verdict: a violation when lhs > C * upper * (1 +
    RATIO_TOL), relative to the bound; the bound's rounding error, about
    n^m units in the last place, is far inside that tolerance.  A zero
    bound gives ratio 1.0 for a zero lhs (inf otherwise).  A finite-p trial
    still inconclusive gets stage 2: the same bound with its l_inf side
    also capped by the root enumeration at K = `_root_count(m, n)` roots of
    unity (none past K = 4 at 2^18 patterns), and the row is marked
    `retried`.  With a right constant no trial is inconclusive, so stage 2
    does not run.

    Trials run in batches of consecutive indices: one `_score` call scores
    every trial of a batch, stage 1 bounds them in one call, the restarts
    of every trial in a batch ascend together as one `_ascend` stack, and
    the batch's inconclusive trials get stage 2 in one more call.  A batch
    holds as many trials as keep restarts * n^m <= 2^16 coefficients
    gathered per slot product (at least one trial; fewer when jobs > 1, so
    that every worker gets a batch).  Each trial's scores, bounds and
    restarts are the ones it gets alone, so the trial rows are the same for
    any batching and any jobs.
    A serial run (jobs=1) is fast; jobs > 1 hands whole batches to worker
    processes and is optional.  jobs < 1 raises DomainError.
    """
    seed = _check_seed(seed)
    cfg = config or TrialConfig()
    exps = _admissible_exponents(m, n, p, lambda0, field)
    start = time.perf_counter()
    size = min(_batch_trials(cfg.restarts, n, m), math.ceil(cfg.trials / cfg.jobs))
    tasks = [
        (exps, n, seed, cfg, b, min(b + size, cfg.trials)) for b in range(0, cfg.trials, size)
    ]
    if cfg.jobs > 1:
        # imported here: the process-pool machinery costs about 2 MB and
        # 15 ms at import, which serial runs never need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            batches = list(pool.map(_run_batch, tasks))
    else:
        batches = [_run_batch(task) for task in tasks]
    results = [row for batch in batches for row in batch]
    elapsed = time.perf_counter() - start

    violations = sum(1 for r in results if r.classification == "violation")
    inconclusive = sum(1 for r in results if r.classification == "inconclusive")
    return CertificationReport(
        m=m, n=n, p=p, lambda0=lambda0, field=field,
        s=exps.s, eta1=exps.eta1, constant=exps.constant,
        extrapolated=exps.extrapolated,
        trials=cfg.trials,
        violations=violations,
        inconclusive=inconclusive,
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
    budget: int = 500,
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
    SEARCH_CHUNK steps, so its draws depend only on (seed, t).  The climb
    scores its candidates in speculative blocks of up to SEARCH_BLOCK:
    candidate i of a block is the one the climb would build if the i before
    it were rejected, all are scored in one `_score` pass, the first
    one with a higher ratio is kept and the ones after it are discarded
    (they are not counted in `evaluations`).  `_score` gives each
    candidate the ratio it gets alone, so the result is the one a climb
    scoring one candidate at a time gives, for any block size.  Candidate i
    of a block that starts after `rejects` rejections steps by step * 0.5
    ** ((rejects + i) // 20), a factor read from a table (`_climb_tables`)
    built once per call for SEARCH_BLOCK.

    Candidates are scored by `_score`, the scorer of `certify`: the ratio
    is lhs / upper(||T||), 1.0 for a zero tensor, with upper the exact
    l_inf norm at real p = inf and the Hoelder bound ||coeff||_{p'}
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
    step = 1.0
    rejects = 0
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
    rows, factors = _climb_tables(SEARCH_BLOCK)
    while spent < budget:
        # candidates up to the one whose rejection would collapse the step
        halvings = 1
        while step * 0.5**halvings >= 1e-3:
            halvings += 1
        K = min(SEARCH_BLOCK, budget - spent, 20 * halvings - rejects)
        index, normal = draws.take(taken, K)
        steps = step * factors[rejects, :K]
        stack = np.repeat(current[None], K, axis=0)
        stack.reshape(K, -1)[rows[:K], index] += steps * normal
        block_ratios = ratios(stack)
        higher = block_ratios > current_ratio
        i = int(higher.argmax())   # the first higher candidate, or 0 when none is
        used = i + 1 if higher[i] else K
        spent += used
        taken += used
        if higher[i]:
            # keep the first higher candidate; the ones after it are discarded
            step, rejects = float(steps[i]), 0
            accepted += 1
            current, current_ratio = stack[i], float(block_ratios[i])
            if current_ratio > best_ratio:
                best, best_ratio = current, current_ratio
            continue
        # K rejections; the last one may collapse the step
        step *= 0.5 ** ((rejects + K) // 20)
        rejects = (rejects + K) % 20
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


def _climb_tables(block: int) -> Tuple[np.ndarray, np.ndarray]:
    """(row indices 0..block-1, step factors) of `search_extremal`'s blocks.

    factors[rejects, i] = 0.5 ** ((rejects + i) // 20) for rejects < 20:
    candidate i of a block that starts after `rejects` rejections in a row
    steps by step * factors[rejects, i].  Every factor is a power of two, so
    that product is exact.
    """
    rows = np.arange(block)
    return rows, 0.5 ** ((np.arange(20)[:, None] + rows) // 20)


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
class SweepRow:
    lambda0: float
    s: float
    eta1: float
    constant: float
    admissible: bool
    extrapolated: bool
    max_ratio_conservative: Optional[float]

    def to_jsonable(self) -> dict:
        return _jsonable(self)


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
    NaN).  With a config, each admissible row also gets a certification run
    with that config, as it is, and reports its conservative max ratio;
    without one the sweep is the table only.
    """
    seed = _check_seed(seed)
    _check_integer("n", n, 1)
    rows: List[SweepRow] = []
    for lam in grid:
        exp = exponents(m, p, lam, field, strict=False)
        ratio: Optional[float] = None
        if exp.admissible and config is not None:
            report = certify(m, n, p, lam, field, config=config, seed=seed)
            ratio = report.max_ratio_conservative
        rows.append(
            SweepRow(
                lambda0=lam,
                s=exp.s,
                eta1=exp.eta1,
                constant=exp.constant,
                admissible=exp.admissible,
                extrapolated=exp.extrapolated,
                max_ratio_conservative=ratio,
            )
        )
    return rows


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
