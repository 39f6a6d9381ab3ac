"""End-to-end certification, extremal search, and sweeps."""

import importlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcert import (
    BudgetError,
    DomainError,
    FormTensor,
    ScalarField,
    TrialConfig,
    alternating_max,
    certify,
    check_khinchin,
    exact_linf_enum,
    exponents,
    generate,
    mixed_norm,
    search_extremal,
    steinhaus_moment,
    sweep_lambda0,
    tensor_from_json,
)
from hlcert.certify import (
    SEARCH_CHUNK,
    _classify,
    _ratio,
    _score,
    report_to_json,
    sweep_to_csv,
    trials_to_csv,
)
from hlcert.norms import _exact_linf_stack, _hoelder_bounds, _interpolation_bounds, _root_count
from hlcert.tensor import _magnitudes, mixed_norms

certify_module = importlib.import_module("hlcert.certify")

REAL = ScalarField.REAL
COMPLEX = ScalarField.COMPLEX


def test_classify_thresholds():
    assert _classify(1.0, 2.0, 3.0) == "pass"
    assert _classify(2.5, 2.0, 3.0) == "inconclusive"
    assert _classify(3.5, 2.0, 3.0) == "violation"
    assert _classify(0.0, 0.0, 0.0) == "pass"
    assert _classify(1.0, 0.0, 0.0) == "violation"


@pytest.mark.parametrize(
    "lhs, c_lower, c_upper",
    [
        (math.nan, 2.0, 3.0),
        (math.inf, 2.0, 3.0),
        (1.0, math.nan, 3.0),
        (1.0, -math.inf, 3.0),
        (1.0, 2.0, math.inf),
        (1.0, 2.0, math.nan),
    ],
)
def test_classify_rejects_non_finite(lhs, c_lower, c_upper):
    with pytest.raises(DomainError, match="non-finite"):
        _classify(lhs, c_lower, c_upper)


def test_certify_sparse_unit_ratio_exactly_one():
    # lhs = lower = ||T|| = 1; the stage 1 bound is certified, so rounded
    # outward: the float Hoelder bound 1 rounded up, or the smaller
    # interpolation bound, a few units in the last place above 1
    cfg = TrialConfig(trials=10, kinds=("sparse_unit",), keep_trials=True)
    report = certify(3, 2, 4.0, 1.0, REAL, config=cfg, seed=5)
    assert report.violations == 0
    for row in report.trial_rows:
        assert (row.lhs, row.lower) == (1.0, 1.0) and 1.0 < row.upper < 1.0 + 1e-14
        assert row.ratio_conservative == 1.0 / row.upper
        assert row.ratio_empirical == 1.0
        assert row.classification == "pass"


def test_a_patched_ratio_tol_flips_a_borderline_verdict(monkeypatch):
    # a sparse unit tensor scores lhs = lower = upper; against a constant
    # 1 / (1 + 1e-6) it is a violation within the default RATIO_TOL and a
    # pass within 1e-3, so `_classify` must read the constant at each call
    admissible = certify_module._admissible_exponents
    monkeypatch.setattr(
        certify_module, "_admissible_exponents",
        lambda *args: replace(admissible(*args), constant=1.0 / (1.0 + 1e-6)),
    )
    cfg = TrialConfig(trials=4, kinds=("sparse_unit",))
    assert certify(3, 2, 4.0, 1.0, REAL, config=cfg, seed=5).violations == 4
    monkeypatch.setattr(certify_module, "RATIO_TOL", 1e-3)
    report = certify(3, 2, 4.0, 1.0, REAL, config=cfg, seed=5)
    assert (report.violations, report.inconclusive) == (0, 0)


def test_certify_small_run_no_violations():
    cfg = TrialConfig(trials=60)
    report = certify(3, 2, 4.0, 1.0, REAL, config=cfg, seed=11)
    assert report.violations == 0
    assert report.trials == 60
    assert report.max_ratio_conservative <= report.max_ratio_empirical + 1e-15
    assert report.constant == pytest.approx(2.0, abs=1e-12)


def test_certify_exact_path_no_inconclusive():
    cfg = TrialConfig(trials=60)
    report = certify(2, 3, math.inf, 2.0, REAL, config=cfg, seed=11)
    assert report.violations == 0
    assert report.inconclusive == 0
    assert report.extrapolated
    assert report.constant == pytest.approx(1.0, abs=1e-12)


def test_certify_at_a_large_outer_exponent_classifies_every_trial():
    # p = 3.001 is admissible with eta1 about 3001: the scorer's mixed norms
    # used to overflow at that power, and certify raised "cannot classify
    # non-finite values: lhs=inf" after an overflow warning
    cfg = TrialConfig(trials=50, keep_trials=True)
    report = certify(3, 3, 3.001, 1.0, REAL, config=cfg, seed=7)
    assert report.eta1 > 3000.0
    assert report.violations == 0
    assert report.inconclusive == 0
    assert all(math.isfinite(row.lhs) and row.lhs > 0.0 for row in report.trial_rows)


def test_certify_conservative_below_empirical_per_trial():
    cfg = TrialConfig(trials=30, keep_trials=True)
    report = certify(2, 3, 4.0, 1.5, REAL, config=cfg, seed=3)
    for row in report.trial_rows:
        assert row.ratio_conservative <= row.ratio_empirical + 1e-15
        assert row.lower <= row.upper + 1e-15


def test_certify_inadmissible_raises():
    with pytest.raises(DomainError):
        certify(2, 2, 4.0, 1.0, REAL, config=TrialConfig(trials=1), seed=0)
    with pytest.raises(DomainError):
        certify(3, 2, 10.0, 1.0, REAL, config=TrialConfig(trials=1), seed=0)


def test_certify_deterministic_reports():
    cfg = TrialConfig(trials=16)
    a = report_to_json(certify(3, 2, 4.0, 1.2, REAL, config=cfg, seed=21))
    b = report_to_json(certify(3, 2, 4.0, 1.2, REAL, config=cfg, seed=21))
    assert a == b
    c = report_to_json(certify(3, 2, 4.0, 1.2, REAL, config=cfg, seed=22))
    assert a != c


def test_certify_jobs_invariant():
    base = TrialConfig(trials=8)
    seq = certify(3, 2, 4.0, 1.0, REAL, config=base, seed=9)
    par = certify(
        3, 2, 4.0, 1.0, REAL,
        config=TrialConfig(trials=8, jobs=2), seed=9,
    )
    # jobs is recorded, so compare the per-trial content instead of raw JSON
    assert seq.violations == par.violations
    assert seq.inconclusive == par.inconclusive
    assert seq.max_ratio_conservative == par.max_ratio_conservative
    assert seq.max_ratio_empirical == par.max_ratio_empirical


def _per_trial_rows(m, n, p, lambda0, cfg, seed, factor=1.0):
    # reference: the certify pipeline one trial at a time through the public
    # alternating_max (whose upper bound is stage 1's) and a one-tensor
    # stage 2, with the same streams (generate, norm); factor scales C
    exps = exponents(m, p, lambda0, REAL)
    C = factor * exps.constant
    rows = []
    for t in range(cfg.trials):
        ss = np.random.SeedSequence([seed, t])
        gen_ss, norm_ss = ss.spawn(2)
        T = generate(cfg.kinds[t % len(cfg.kinds)], m, n, REAL, gen_ss)
        lhs = max(mixed_norms(T, exps.s, exps.eta1))
        est = alternating_max(T, p, seed=norm_ss)
        lower, upper = est.lower, est.upper
        classification = _classify(lhs, C * lower, C * upper)
        retried = classification == "inconclusive"
        if retried:
            upper = float(_interpolation_bounds(T.coeffs[None], p, _root_count(m, n))[0])
            lower = min(lower, upper)
            classification = _classify(lhs, C * lower, C * upper)
        rows.append((t, int(ss.generate_state(1)[0]), lhs, lower, upper,
                     classification, retried))
    return rows


def _row_tuples(report):
    return [
        (r.index, r.seed_entropy, r.lhs, r.lower, r.upper, r.classification, r.retried)
        for r in report.trial_rows
    ]


def test_certify_batches_match_serial_and_jobs():
    # 100 trials at (3, 3) with 32 restarts run as batches of 75 + 25 serially
    # and 50 + 50 on two workers; every row must be the per-trial result
    cfg = TrialConfig(trials=100, keep_trials=True)
    seq = certify(3, 3, 4.0, 1.0, REAL, config=cfg, seed=31)
    par = certify(3, 3, 4.0, 1.0, REAL, config=replace(cfg, jobs=2), seed=31)
    assert report_to_json(seq) == report_to_json(par).replace('"jobs": 2', '"jobs": 1')
    assert seq.trial_rows == par.trial_rows
    assert trials_to_csv(seq.trial_rows) == trials_to_csv(par.trial_rows)
    assert _row_tuples(seq) == _per_trial_rows(3, 3, 4.0, 1.0, cfg, 31)


def _scaled_constant(monkeypatch, factor):
    # the self-diagnostic's mutation: certify against factor * C
    admissible = certify_module._admissible_exponents

    def mutated(*args):
        exps = admissible(*args)
        return replace(exps, constant=factor * exps.constant)

    monkeypatch.setattr(certify_module, "_admissible_exponents", mutated)


def test_certify_stage_two_matches_the_per_trial_stage_two(monkeypatch):
    # a constant 4x too small leaves many trials inconclusive after stage 1;
    # stage 2 (the root-capped bound) runs on them as one call, resolves
    # some, never loosens a bound, and gives every row its per-trial value
    _scaled_constant(monkeypatch, 0.25)
    cfg = TrialConfig(trials=60, keep_trials=True)
    rows = _row_tuples(certify(3, 3, 4.0, 1.0, REAL, config=cfg, seed=3))
    retried = [r for r in rows if r[-1]]
    assert len(retried) >= 10
    assert any(r[5] == "violation" for r in retried)   # stage 2 resolves some
    assert rows == _per_trial_rows(3, 3, 4.0, 1.0, cfg, 3, factor=0.25)
    for t, *_, upper, _, _ in retried:
        T = generate(cfg.kinds[t % 2], 3, 3, REAL, np.random.SeedSequence([3, t]).spawn(2)[0])
        assert upper <= _interpolation_bounds(T.coeffs[None], 4.0)[0]


@pytest.mark.parametrize("jobs", [0, -3])
def test_certify_rejects_jobs_below_one(jobs):
    with pytest.raises(DomainError, match="jobs must be >= 1"):
        certify(3, 2, 4.0, 1.0, REAL, config=TrialConfig(trials=2, jobs=jobs), seed=1)


@pytest.mark.parametrize("setting, message", [
    ({"kinds": ()}, "kinds must name at least one"),       # was ZeroDivisionError
    ({"kinds": "gaussian"}, "kinds must name at least one"),  # was "unknown kind 'g'"
    ({"kinds": ("gaussian", "bogus")}, "unknown generator kind 'bogus'"),
])
def test_trial_config_rejects_bad_run_settings(setting, message):
    # every certify and sweep_lambda0 run builds its TrialConfig, directly
    # or by `replace`, so the check fires before any work
    with pytest.raises(DomainError, match=message):
        certify(3, 2, 4.0, 1.0, REAL, config=TrialConfig(trials=2, **setting), seed=1)
    with pytest.raises(DomainError, match=message):
        replace(TrialConfig(), **setting)


@pytest.mark.parametrize("kinds", [
    ("gaussian", "bogus"), "gaussian", (), ("gaussian", "steinhaus"), ("steinhaus",),
])
def test_a_bad_kind_raises_before_any_batch(monkeypatch, kinds):
    # at (3, 16) a batch is one trial: a kind that generate refuses used to
    # fail only after the batches before it had run their full ascent
    # (steinhaus, which the real field cannot hold, is refused by certify)
    batches = []
    monkeypatch.setattr(certify_module, "_run_batch", batches.append)
    with pytest.raises(DomainError):
        certify(3, 16, 4.0, 1.0, REAL, config=TrialConfig(trials=4, kinds=kinds), seed=1)
    with pytest.raises(DomainError):
        sweep_lambda0(3, 4.0, 16, REAL, grid=(1.0, 1.1), seed=1,
                      config=TrialConfig(trials=4, kinds=kinds))
    assert batches == []


def test_a_huge_m_is_refused_before_any_batch(monkeypatch):
    # n^m = 3^(10^6) is refused on bit lengths before the batch sizing
    # computes it: it used to raise ValueError (an int past 4300 digits in
    # the budget message), and took 5.3 s to do so at m = 10^7
    batches = []
    monkeypatch.setattr(certify_module, "_run_batch", batches.append)
    cfg = TrialConfig(trials=2)
    for m in (10**6, 10**7):
        with pytest.raises(BudgetError, match=rf"n\^m = 3\^{m} exceeds the entry budget"):
            certify(m, 3, math.inf, 2.0, REAL, config=cfg)
        with pytest.raises(BudgetError, match=rf"n\^m = 3\^{m} exceeds the entry budget"):
            sweep_lambda0(m, math.inf, 3, REAL, grid=(2.0,), config=cfg)
    assert batches == []


def test_search_rejects_a_negative_budget():
    with pytest.raises(DomainError, match="budget must be >= 0"):
        search_extremal(3, 2, 4.0, 1.0, REAL, budget=-5, seed=1)


def test_trial_csv_layout():
    cfg = TrialConfig(trials=4, keep_trials=True)
    report = certify(3, 2, 4.0, 1.0, REAL, config=cfg, seed=2)
    text = trials_to_csv(report.trial_rows)
    lines = text.strip().splitlines()
    assert lines[0] == (
        "trial,kind,seed,ratio_conservative,ratio_empirical,classification,retried"
    )
    assert len(lines) == 5
    assert lines[1].startswith("0,gaussian,")
    assert lines[2].startswith("1,signs,")


def test_rank_one_ratio_within_constant():
    # closed form: for T = u (x) v the norm on l_p x l_p is ||u||_p' * ||v||_p'
    rng = np.random.default_rng(14)
    e = exponents(2, 4.0, 1.5, REAL)
    pp = 4.0 / 3.0
    for _ in range(10):
        u, v = rng.standard_normal((2, 3))
        T = FormTensor(m=2, n=3, field=REAL, coeffs=np.outer(u, v))
        norm = float(
            (np.abs(u) ** pp).sum() ** (1 / pp) * (np.abs(v) ** pp).sum() ** (1 / pp)
        )
        lhs = max(mixed_norm(T, i, e.s, e.eta1) for i in (1, 2))
        assert lhs <= e.constant * norm + 1e-9


def test_search_scalar_form_ratio_one():
    result = search_extremal(2, 1, 4.0, 1.5, REAL, budget=10, seed=1)
    assert result.ratio_conservative == pytest.approx(1.0, abs=1e-12)


def test_search_budget_zero_seed_tensor_only():
    result = search_extremal(3, 2, 4.0, 1.0, REAL, budget=0, seed=6)
    assert result.evaluations == 0
    assert 0.0 < result.ratio_conservative <= 2.0 + 1e-9


def test_search_improves_and_respects_bound():
    r0 = search_extremal(3, 2, 4.0, 1.0, REAL, budget=0, seed=4)
    r1 = search_extremal(3, 2, 4.0, 1.0, REAL, budget=150, seed=4)
    assert r1.ratio_conservative >= r0.ratio_conservative - 1e-15
    e = exponents(3, 4.0, 1.0, REAL)
    assert r1.ratio_conservative <= e.constant + 1e-9


def _reference_ratio(coeffs, exps, field):
    """The ratio the search ranks one tensor by, from the one-tensor functions.

    lhs is the largest of `mixed_norms`; the bound is the float Hoelder
    bound `_hoelder_bounds` (not `crude_upper`, which rounds it outward), or
    at real p = inf the raw sign enumeration of the tensor alone, the value
    `_score` ranks by (not `exact_linf_enum(T).lower`, which the float mass
    caps).
    """
    T = FormTensor(m=coeffs.ndim, n=coeffs.shape[0], field=field, coeffs=coeffs)
    if math.isinf(exps.p) and field is REAL:
        upper = _exact_linf_stack(coeffs[None])[0][0]
    else:
        upper = _hoelder_bounds(*_magnitudes(coeffs[None]), exps.p)[0]
    lhs = max(mixed_norms(T, exps.s, exps.eta1))
    return lhs / upper if upper > 0.0 else (1.0 if lhs == 0.0 else math.inf)


def test_reference_ratio_ranks_real_linf_by_the_scorer_value():
    # a (2, 2) Gaussian of default_rng(25) whose float sign enumeration
    # rounds above its float mass, which caps exact_linf_enum(T).lower:
    # ranked by that lower bound, the reference climb could part from the
    # search on such a tensor
    coeffs = np.random.default_rng(25).standard_normal((37, 2, 2))[5]
    T = FormTensor(m=2, n=2, field=REAL, coeffs=coeffs)
    enum = _exact_linf_stack(coeffs[None])[0][0]
    assert (enum, exact_linf_enum(T).lower) == (1.2524542349604924, 1.2524542349604921)
    exps = exponents(2, math.inf, 2.0, REAL)
    scored = _scored_ratios(coeffs[None], exps.s, exps.eta1, True)[0]
    assert _reference_ratio(coeffs, exps, REAL) == scored
    assert scored != max(mixed_norms(T, exps.s, exps.eta1)) / exact_linf_enum(T).lower


def _reference_climb(m, n, p, lambda0, field, budget, seed):
    """The climb `search_extremal` documents, scoring one candidate at a time.

    Each tensor is scored alone by `_reference_ratio`; climb step t reads
    the t-th draws of the chunked stream of SeedSequence([seed, 1]).
    Returns (SearchResult fields, the evaluations spent at each step collapse).
    """
    exps = exponents(m, p, lambda0, field)

    def ratio_of(coeffs):
        return _reference_ratio(coeffs, exps, field)

    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    index, normal = [], []

    def draw(t):
        while len(index) <= t:
            index.extend(rng.integers(0, n**m, SEARCH_CHUNK).tolist())
            if field is COMPLEX:
                z = rng.standard_normal((SEARCH_CHUNK, 2))
                normal.extend(complex(a, b) for a, b in z.tolist())
            else:
                normal.extend(rng.standard_normal(SEARCH_CHUNK).tolist())
        return index[t], normal[t]

    kind = "signs" if field is REAL else "steinhaus"
    current = generate(kind, m, n, field, np.random.SeedSequence([seed, 2])).coeffs
    current_ratio = ratio_of(current)
    best, best_ratio = current, current_ratio
    step, rejects, accepted, restarts, spent, t = 1.0, 0, 0, 0, 0, 0
    collapses = []
    if budget > 0:
        unit = np.zeros((n,) * m)
        unit.flat[0] = 1.0
        spent = 1
        if ratio_of(unit) > best_ratio:
            best, best_ratio = unit, ratio_of(unit)
    while spent < budget:
        candidate = np.array(current)
        i, z = draw(t)
        t += 1
        candidate.flat[i] += step * z
        candidate_ratio = ratio_of(candidate)
        spent += 1
        if candidate_ratio > current_ratio:
            current, current_ratio = candidate, candidate_ratio
            rejects = 0
            accepted += 1
            if current_ratio > best_ratio:
                best, best_ratio = current, current_ratio
        else:
            rejects += 1
            if rejects >= 20:
                rejects = 0
                step *= 0.5
                if step < 1e-3:
                    collapses.append(spent)
                if step < 1e-3 and spent < budget:
                    restarts += 1
                    current = generate(
                        "gaussian", m, n, field, np.random.SeedSequence([seed, 3, restarts])
                    ).coeffs
                    current_ratio = ratio_of(current)
                    spent += 1
                    step = 1.0
    best = FormTensor(m=m, n=n, field=field, coeffs=best).coeffs
    return (best.tobytes(), best_ratio, spent, accepted), collapses


def _fields(result):
    return (result.tensor.coeffs.tobytes(), result.ratio_conservative,
            result.evaluations, result.accepted_steps)


SEARCH_CASES = [
    (3, 2, 4.0, 1.0, REAL),
    (3, 3, 4.0, 1.0, REAL),
    (2, 3, 4.0, 1.5, REAL),
    (4, 2, 5.0, 1.0, REAL),
    (3, 2, 4.0, 1.0, COMPLEX),
    (2, 2, math.inf, 2.0, REAL),
]


def test_search_matches_sequential_reference_climb():
    # the blocks follow the one-candidate-at-a-time climb bit for bit: the
    # same tensor bytes, ratio, evaluations == budget and accepted steps.
    # Budgets 19, 20 and 21 end inside, at and just past the first block of
    # 20; the budget-2500 climb of every case restarts at least once, and a
    # budget that runs out exactly at a step collapse leaves no room for the
    # restart.
    def check(case, seed, budget):
        expected, collapses = _reference_climb(*case, budget, seed)
        result = search_extremal(*case, budget=budget, seed=seed)
        assert _fields(result) == expected, (case, seed, budget)
        assert result.evaluations == budget
        return collapses

    for case in SEARCH_CASES + [(2, 10, math.inf, 2.0, REAL)]:
        for seed, budget in [(3, 0), (3, 1), (5, 2), (13, 19), (13, 20), (13, 21), (11, 60)]:
            check(case, seed, budget)
        collapses = check(case, 7, 2500)
        assert collapses, case
        check(case, 7, collapses[0])


def test_score_gives_every_candidate_its_values_alone_at_every_block_width():
    # a block of the climb is a stack of up to 20 candidates, each the
    # current tensor with one coefficient moved; in stacks of any width,
    # every candidate's (lhs, upper) is the one it gets alone, bit for bit
    rng = np.random.default_rng(19)
    for m, n, p, lambda0, field in SEARCH_CASES + [(2, 10, math.inf, 2.0, REAL)]:
        exps = exponents(m, p, lambda0, field)
        current = generate("gaussian", m, n, field, 19).coeffs
        steps = 2.0 ** -rng.integers(0, 11, 32) * rng.standard_normal(32)
        if field is COMPLEX:
            steps = steps * np.exp(2j * np.pi * rng.random(32))
        stack = np.repeat(current[None], 32, axis=0)
        stack.reshape(32, -1)[np.arange(32), rng.integers(0, n**m, 32)] += steps
        alone = [_score(stack[k : k + 1], exps) for k in range(32)]
        for width in (1, 7, 20, 32):
            lhs, upper = _score(stack[:width], exps)
            for k in range(width):
                assert (lhs[k], upper[k]) == (alone[k][0][0], alone[k][1][0]), (m, n, p, width, k)


def _score_exponents(s, eta1, exact):
    # exponents whose `_score` takes mixed norms at (s, eta1) against the
    # exact real l_inf bound when `exact`, else against the Hoelder bound at
    # p = 4
    return replace(exponents(2, 4.0, 1.5, REAL), p=math.inf if exact else 4.0, s=s, eta1=eta1)


def _scored_ratios(stack, s, eta1, exact):
    # the ratios the search ranks a stack by
    return _ratio(*_score(stack, _score_exponents(s, eta1, exact)))


def test_search_block_scores_match_one_tensor_scores():
    # the batched scorer gives each tensor the ratio it gets alone, bit for
    # bit; at real p = inf its upper bound is the float value that
    # exact_linf_enum rounds outward, capped by the mass for its lower.  The
    # draws of seed 25 include a (2, 12) tensor whose value an enumeration
    # that merges the stack into one wide free axis rounds differently
    rng = np.random.default_rng(25)
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (4, 2), (2, 9), (2, 10), (2, 12)]:
        exps = exponents(m, math.inf, 2.0 if m == 2 else 1.5, REAL)
        for K in (1, 3, 33):
            stack = rng.standard_normal((K,) + (n,) * m)
            for exact in (True, False):
                ratios = _scored_ratios(stack, exps.s, exps.eta1, exact)
                for k in range(K):
                    alone = _scored_ratios(stack[k : k + 1], exps.s, exps.eta1, exact)
                    assert ratios[k] == alone[0]
            values, _ = _exact_linf_stack(stack)
            for k in range(K):
                T = FormTensor(m=m, n=n, field=REAL, coeffs=stack[k])
                assert min(values[k], np.abs(stack[k]).sum()) == exact_linf_enum(T).lower


@given(
    c=st.floats(min_value=1e-6, max_value=1e6),
    negative=st.booleans(),
    shape=st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 2)]),
    exact=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_search_ratio_is_scale_invariant(c, negative, shape, exact, seed):
    m, n = shape
    stack = np.random.default_rng(seed).standard_normal((4,) + (n,) * m)
    c = -c if negative else c
    base = _scored_ratios(stack, 2.0, 4.0, exact)
    np.testing.assert_allclose(_scored_ratios(c * stack, 2.0, 4.0, exact), base, rtol=1e-12)
    # a power of two scales every mixed norm and bound exactly
    assert np.array_equal(_scored_ratios(stack * 2.0**-600, 2.0, 4.0, exact), base)


def test_search_scorer_rejects_non_finite_candidates():
    stack = np.ones((3, 2, 2, 2))
    stack[1, 0, 1, 1] = np.inf
    with pytest.raises(DomainError, match="finite"):
        _score(stack, _score_exponents(2.0, 4.0, False))
    # a NaN or an infinite part of a complex entry is caught alike, for
    # either bound
    for bad in (np.nan, -np.inf, complex(np.nan, 0.0), complex(1.0, np.inf)):
        stack = np.ones((3, 2, 2, 2), dtype=type(bad))
        stack[2, 1, 0, 1] = bad
        for exact in (True, False):
            with pytest.raises(DomainError, match="finite"):
                _score(stack, _score_exponents(2.0, 4.0, exact))


@pytest.mark.parametrize("p, lambda0", [(4.0, 1.0), (math.inf, 2.0)])
def test_scorer_refuses_a_modulus_past_the_largest_float(p, lambda0):
    # finite parts, |z| about 2.1e308: every norm and bound of its tensor
    # would be inf, so a raw stack holding it is refused as FormTensor
    # refuses the tensor
    exps = exponents(3, p, lambda0, COMPLEX)
    ordinary = generate("gaussian", 3, 2, COMPLEX, 3).coeffs
    big = ordinary.copy()
    big[1, 0, 1] = 1.5e308 + 1.5e308j
    with pytest.raises(DomainError, match="coefficients must all be finite"):
        _score(np.stack([ordinary, big, ordinary]), exps)


def test_a_modulus_past_the_largest_float_is_refused_where_it_enters():
    # the one finiteness rule holds every entry's modulus: these used to
    # give inf norms, a NaN ascent bound, or a misleading |chaos|^q error
    big = 1.5e308 + 1.5e308j
    coeffs = np.ones((2, 2), dtype=complex)
    coeffs[0, 1] = big
    text = json.dumps({"m": 2, "n": 2, "field": "complex",
                       "coeffs": [[big.real, big.imag], [1, 0], [0, 1], [1, 1]]})
    calls = [
        lambda: FormTensor(m=2, n=2, field=COMPLEX, coeffs=coeffs),
        lambda: tensor_from_json(text),
        lambda: steinhaus_moment([big, 1.0], 1.5, samples=100),
        lambda: check_khinchin([big, 1.0], 1.5, COMPLEX, samples=100),
        lambda: _score(coeffs[None], exponents(2, 4.0, 1.0, COMPLEX)),
        lambda: _interpolation_bounds(coeffs[None], 4.0, _root_count(2, 2)),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="coefficients must all be finite"):
            call()


def test_a_constant_four_times_too_small_is_reported_at_every_trial(monkeypatch):
    # the self-diagnostic at (3, 2, 4, 1.2): against the Hoelder bound a
    # constant 4x too small is a violation at all 200 trials (35 against the
    # coefficient mass), and the right constant gives no violation and no
    # inconclusive trial
    cfg = TrialConfig(trials=200)
    report = certify(3, 2, 4.0, 1.2, REAL, config=cfg, seed=7)
    assert (report.violations, report.inconclusive) == (0, 0)
    admissible = certify_module._admissible_exponents

    def mutated(*args):
        exps = admissible(*args)
        return replace(exps, constant=0.25 * exps.constant)

    monkeypatch.setattr(certify_module, "_admissible_exponents", mutated)
    report = certify(3, 2, 4.0, 1.2, REAL, config=cfg, seed=7)
    assert report.violations == 200


@pytest.mark.parametrize(
    "case, factor, hoelder_violations", [((3, 3, 4.0, 1.0), 0.25, 0), ((3, 2, 4.0, 1.2), 0.5, 1)]
)
def test_a_constant_too_small_is_caught_through_the_interpolation_bound(
    case, factor, hoelder_violations, monkeypatch
):
    # against the Hoelder bound alone, x0.25 at (3, 3, 4, 1) gave 0
    # violations (and 197 inconclusive trials of 200), and x0.5 at (3, 2, 4,
    # 1.2) gave 1; the interpolation bound catches more in both
    _scaled_constant(monkeypatch, factor)
    report = certify(*case, REAL, config=TrialConfig(trials=200), seed=7)
    assert report.violations > hoelder_violations


@pytest.mark.parametrize(
    "case", [(3, 3, 4.0, 1.0), (3, 2, 4.0, 1.2), (4, 3, 4.5, 1.0), (3, 3, math.inf, 2.0)]
)
def test_the_right_constant_leaves_no_violation_and_no_inconclusive_trial(case):
    cfg = TrialConfig(trials=200, keep_trials=True)
    report = certify(*case, REAL, config=cfg, seed=7)
    assert (report.violations, report.inconclusive) == (0, 0)
    assert not any(row.retried for row in report.trial_rows)   # stage 2 never ran


@pytest.mark.parametrize("case", [(3, 3, 4.0, 1.0), (2, 3, math.inf, 2.0), (2, 10, math.inf, 2.0)])
def test_certify_and_search_score_a_tensor_alike(case, monkeypatch):
    # a certify trial's lhs is the search scorer's for its tensor, bit for
    # bit, and its upper bound is the scorer's tightened by the stage that
    # ran (at real p = inf, exact_linf_enum's: the scorer's float value
    # rounded outward); a budget-0 search from that tensor reports the
    # scorer's ratio, between the trial's two ratios at real p = inf
    m, n, p, lambda0 = case
    exps = exponents(m, p, lambda0, REAL)
    cfg = TrialConfig(trials=6, keep_trials=True)
    for row in certify(*case, REAL, config=cfg, seed=5).trial_rows:
        gen_ss = np.random.SeedSequence([5, row.index]).spawn(2)[0]
        T = generate(row.kind, m, n, REAL, gen_ss)
        lhs, upper = _score(T.coeffs[None], exps)
        roots = _root_count(m, n) if row.retried else None
        if math.isinf(p):
            bound = np.array([exact_linf_enum(T).upper])
        else:
            bound = _interpolation_bounds(T.coeffs[None], p, roots)
        assert (row.lhs, row.upper) == (lhs[0], bound[0])
        assert row.ratio_conservative == _ratio(lhs, bound)[0]
        monkeypatch.setattr(certify_module, "generate", lambda *args, T=T: T)
        result = search_extremal(*case, REAL, budget=0, seed=1)
        assert result.ratio_conservative == _ratio(lhs, upper)[0]
        if math.isinf(p):
            ratios = (row.ratio_conservative, row.ratio_empirical)
            assert ratios[0] < result.ratio_conservative <= ratios[1]


def test_zero_tensor_scores_one_in_certify_and_search(monkeypatch):
    def zero(kind, m, n, field, seed):
        return FormTensor(m=m, n=n, field=field, coeffs=np.zeros((n,) * m))

    monkeypatch.setattr(certify_module, "generate", zero)
    cfg = TrialConfig(trials=1, keep_trials=True)
    for case in [(3, 3, 4.0, 1.0), (2, 3, math.inf, 2.0)]:
        (row,) = certify(*case, REAL, config=cfg, seed=5).trial_rows
        assert (row.lhs, row.upper, row.ratio_conservative) == (0.0, 0.0, 1.0)
        assert row.classification == "pass"
        assert search_extremal(*case, REAL, budget=0, seed=1).ratio_conservative == 1.0


def test_certify_linf_rows_do_not_depend_on_jobs():
    # at m = 2, n >= 9 a wider l_inf stack can round a value differently,
    # so certify scores each trial alone and its rows stay the same
    cfg = TrialConfig(trials=60, keep_trials=True)
    seq = certify(2, 10, math.inf, 2.0, REAL, config=cfg, seed=5)
    par = certify(2, 10, math.inf, 2.0, REAL, config=replace(cfg, jobs=2), seed=5)
    assert seq.trial_rows == par.trial_rows


def test_search_exact_path():
    result = search_extremal(2, 2, math.inf, 2.0, REAL, budget=60, seed=8)
    assert result.ratio_conservative <= 1.0 + 1e-9
    assert result.tensor.m == 2


def test_search_reaches_unit_ratio_window():
    # the single-coefficient witness pins the result into [1, constant]
    result = search_extremal(3, 2, 4.0, 1.0, REAL, budget=200, seed=12)
    assert 1.0 - 1e-12 <= result.ratio_conservative <= 2.0 + 1e-9


def test_lambda1_certification_constant_thresholds():
    # the lambda0 = 1 runs certify against the recovered constant
    cfg = TrialConfig(trials=25)
    for m, p in [(3, 4.0), (4, 5.0), (4, 6.0)]:
        report = certify(m, 2, p, 1.0, REAL, config=cfg, seed=13)
        expected = 2.0 ** ((m - 1) * (p - m + 1) / p)
        assert report.constant == pytest.approx(expected, abs=1e-12)
        assert report.violations == 0


def test_certify_gaussian_trials_seed7():
    cfg = TrialConfig(trials=1000, kinds=("gaussian",))
    report = certify(3, 2, 4.0, 1.0, REAL, config=cfg, seed=7)
    assert report.violations == 0


def test_certify_complex_field():
    cfg = TrialConfig(trials=30, kinds=("gaussian", "steinhaus"))
    report = certify(
        2, 3, 4.0, 1.5, ScalarField.COMPLEX, config=cfg, seed=31,
    )
    assert report.violations == 0
    # complex p = inf has no exact enumeration; the alternating path serves
    report_inf = certify(
        2, 3, math.inf, 2.0, ScalarField.COMPLEX, config=cfg, seed=31,
    )
    assert report_inf.violations == 0


def test_sweep_flags_m2_p4():
    rows = sweep_lambda0(2, 4.0, 2, REAL, grid=[1.0, 1.5, 2.0])
    assert [r.admissible for r in rows] == [False, True, False]
    assert rows[1].s == pytest.approx(2.4, abs=1e-12)
    assert rows[1].eta1 == pytest.approx(6.0, abs=1e-12)
    # the lambda0 = 2 row hits the singular eta1 denominator (p = lambda0*m)
    assert math.isnan(rows[2].eta1)


def test_sweep_constant_at_lambda1():
    rows = sweep_lambda0(3, 4.0, 2, REAL, grid=[1.0])
    assert rows[0].admissible
    assert rows[0].constant == pytest.approx(2.0, abs=1e-12)


def test_sweep_empty_grid():
    assert sweep_lambda0(2, 4.0, 2, REAL, grid=[]) == []


def test_sweep_with_trials_fills_ratio():
    rows = sweep_lambda0(
        3, 4.0, 2, REAL, grid=[1.0, 1.2], seed=3,
        config=TrialConfig(trials=5),
    )
    for row in rows:
        assert row.admissible
        assert row.max_ratio_conservative is not None
        assert 0.0 < row.max_ratio_conservative <= row.constant + 1e-9


def test_sweep_certifies_every_admissible_row_with_the_config_as_given():
    # a config that does not set trials runs its own count; it used to be
    # ignored unless trials= was passed beside it
    cfg = TrialConfig(trials=5)
    rows = sweep_lambda0(3, 4.0, 2, REAL, grid=[1.0, 1.2, 1.9], seed=3, config=cfg)
    assert [row.admissible for row in rows] == [True, True, False]
    for row in rows[:2]:
        report = certify(3, 2, 4.0, row.lambda0, REAL, config=cfg, seed=3)
        assert row.max_ratio_conservative == report.max_ratio_conservative
    assert rows[2].max_ratio_conservative is None
    # without a config the sweep is the table only
    assert all(
        row.max_ratio_conservative is None
        for row in sweep_lambda0(3, 4.0, 2, REAL, grid=[1.0, 1.2], seed=3)
    )


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("factor", [1.0, 0.25])
def test_every_sweep_row_is_its_certify_run_bit_for_bit(factor, jobs, monkeypatch):
    # the sweep bounds each trial once for all rows; each row's max ratio is
    # still the one certify at its lambda0 reports.  A constant 4x too small
    # leaves trials inconclusive, so stage 2 runs, on each row's own trials
    plain = certify_module.exponents

    def scaled(*args, **kwargs):
        exps = plain(*args, **kwargs)
        return replace(exps, constant=factor * exps.constant)

    monkeypatch.setattr(certify_module, "exponents", scaled)
    cfg = TrialConfig(trials=12, jobs=jobs, keep_trials=True)
    grid = (1.0, 1.1, 1.2, 1.3, 1.4)
    rows = sweep_lambda0(3, 4.0, 3, REAL, grid=grid, seed=5, config=cfg)
    assert [row.admissible for row in rows] == [True, True, True, True, False]
    retried = 0
    for row in rows[:4]:
        report = certify(3, 3, 4.0, row.lambda0, REAL, config=cfg, seed=5)
        assert row.max_ratio_conservative == report.max_ratio_conservative
        retried += sum(trial.retried for trial in report.trial_rows)
    assert (retried > 0) == (factor < 1.0)


def test_a_certified_sweep_draws_each_trial_once(monkeypatch):
    # every row scores the same draws: trials tensors, not rows * trials
    draws = []

    def counted(*args):
        draws.append(args[0])
        return generate(*args)

    monkeypatch.setattr(certify_module, "generate", counted)
    rows = sweep_lambda0(3, 4.0, 2, REAL, grid=(1.0, 1.1, 1.2), seed=3,
                         config=TrialConfig(trials=7))
    assert all(row.max_ratio_conservative is not None for row in rows)
    assert len(draws) == 7


def test_sweep_window_formula():
    # admissible window: max(1, 2p/(2m-2+p)) <= lambda0 < min(2, p/m), up to
    # boundary handling at the closed upper p-end
    m, p = 3, 4.0
    lo = max(1.0, 2.0 * p / (2 * m - 2 + p))
    hi = min(2.0, p / m)
    grid = [1.0 + i / 50.0 for i in range(51)]
    rows = sweep_lambda0(m, p, 2, REAL, grid=grid)
    for row in rows:
        inside = lo <= row.lambda0 < hi
        boundary = row.lambda0 == lo or row.lambda0 == hi
        if not boundary:
            assert row.admissible == inside


def test_sweep_csv_layout():
    rows = sweep_lambda0(2, 4.0, 2, REAL, grid=[1.0, 1.5, 2.0])
    text = sweep_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == (
        "lambda0,s,eta1,constant,admissible,extrapolated,max_ratio_conservative"
    )
    assert len(lines) == 4
    assert lines[3].split(",")[2] == ""  # NaN eta1 serialized as empty


def test_report_json_round_trip():
    import json

    cfg = TrialConfig(trials=4)
    report = certify(2, 3, math.inf, 2.0, REAL, config=cfg, seed=1)
    text = report_to_json(report)
    payload = json.loads(text)
    assert json.dumps(payload, sort_keys=True) == text
    assert payload["p"] == "inf"
    assert payload["seed"] == 1
    assert "elapsed_seconds" not in payload
