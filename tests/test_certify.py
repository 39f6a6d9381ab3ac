"""End-to-end certification, extremal search, and sweeps."""

import importlib
import math

import numpy as np
import pytest

from hlcert import (
    DomainError,
    FormTensor,
    MixedNormSpec,
    ScalarField,
    TrialConfig,
    certify,
    exponents,
    mixed_norm,
    search_extremal,
    sweep_lambda0,
)
from hlcert.certify import (
    _classify,
    report_to_json,
    sweep_to_csv,
    trials_to_csv,
)

REAL = ScalarField.REAL


def test_classify_thresholds():
    assert _classify(1.0, 2.0, 3.0, 1e-9) == "pass"
    assert _classify(2.5, 2.0, 3.0, 1e-9) == "inconclusive"
    assert _classify(3.5, 2.0, 3.0, 1e-9) == "violation"
    assert _classify(0.0, 0.0, 0.0, 1e-9) == "pass"
    assert _classify(1.0, 0.0, 0.0, 1e-9) == "violation"


def test_certify_sparse_unit_ratio_exactly_one():
    cfg = TrialConfig(trials=10, kinds=("sparse_unit",), restarts=2, keep_trials=True)
    report = certify(3, 2, 4.0, 1.0, REAL, config=cfg, seed=5)
    assert report.violations == 0
    for row in report.trial_rows:
        assert row.ratio_conservative == 1.0
        assert row.ratio_empirical == 1.0
        assert row.classification == "pass"


def test_certify_small_run_no_violations():
    cfg = TrialConfig(trials=60, restarts=8)
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


def test_certify_conservative_below_empirical_per_trial():
    cfg = TrialConfig(trials=30, restarts=4, keep_trials=True)
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
    cfg = TrialConfig(trials=16, restarts=4)
    a = report_to_json(certify(3, 2, 4.0, 1.2, REAL, config=cfg, seed=21))
    b = report_to_json(certify(3, 2, 4.0, 1.2, REAL, config=cfg, seed=21))
    assert a == b
    c = report_to_json(certify(3, 2, 4.0, 1.2, REAL, config=cfg, seed=22))
    assert a != c


def test_certify_jobs_invariant():
    base = TrialConfig(trials=8, restarts=2)
    seq = certify(3, 2, 4.0, 1.0, REAL, config=base, seed=9)
    par = certify(
        3, 2, 4.0, 1.0, REAL,
        config=TrialConfig(trials=8, restarts=2, jobs=2), seed=9,
    )
    # jobs is recorded, so compare the per-trial content instead of raw JSON
    assert seq.violations == par.violations
    assert seq.inconclusive == par.inconclusive
    assert seq.max_ratio_conservative == par.max_ratio_conservative
    assert seq.max_ratio_empirical == par.max_ratio_empirical


@pytest.mark.parametrize("jobs", [0, -3])
def test_certify_rejects_jobs_below_one(jobs):
    with pytest.raises(DomainError, match="jobs must be >= 1"):
        certify(3, 2, 4.0, 1.0, REAL, config=TrialConfig(trials=2, jobs=jobs), seed=1)


def test_trial_csv_layout():
    cfg = TrialConfig(trials=4, restarts=2, keep_trials=True)
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
        lhs = max(
            mixed_norm(T, MixedNormSpec(i, e.s, e.eta1)) for i in (1, 2)
        )
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


def test_search_evaluations_count_scored_candidates(monkeypatch):
    # every scoring at finite p calls crude_upper once; restarts re-score a
    # fresh tensor, and those evaluations come out of the budget too
    certify_module = importlib.import_module("hlcert.certify")
    calls = []
    original = certify_module.crude_upper

    def counting(T, p=1.0):
        calls.append(1)
        return original(T, p)

    monkeypatch.setattr(certify_module, "crude_upper", counting)
    result = search_extremal(3, 2, 4.0, 1.0, REAL, budget=5000, seed=7)
    assert result.evaluations == 5000
    assert len(calls) == result.evaluations + 1  # the seed tensor is outside the budget


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
    cfg = TrialConfig(trials=25, restarts=4)
    for m, p in [(3, 4.0), (4, 5.0), (4, 6.0)]:
        report = certify(m, 2, p, 1.0, REAL, config=cfg, seed=13)
        expected = 2.0 ** ((m - 1) * (p - m + 1) / p)
        assert report.constant == pytest.approx(expected, abs=1e-12)
        assert report.violations == 0


def test_certify_gaussian_trials_seed7():
    cfg = TrialConfig(trials=1000, kinds=("gaussian",), restarts=4)
    report = certify(3, 2, 4.0, 1.0, REAL, config=cfg, seed=7)
    assert report.violations == 0


def test_certify_complex_field():
    cfg = TrialConfig(trials=30, kinds=("gaussian", "steinhaus"), restarts=8)
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
        3, 4.0, 2, REAL, grid=[1.0, 1.2], trials=5, seed=3,
        config=TrialConfig(restarts=2),
    )
    for row in rows:
        assert row.admissible
        assert row.max_ratio_conservative is not None
        assert 0.0 < row.max_ratio_conservative <= row.constant + 1e-9


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

    cfg = TrialConfig(trials=4, restarts=2)
    report = certify(2, 3, math.inf, 2.0, REAL, config=cfg, seed=1)
    text = report_to_json(report)
    payload = json.loads(text)
    assert json.dumps(payload, sort_keys=True) == text
    assert payload["p"] == "inf"
    assert payload["seed"] == 1
    assert "elapsed_seconds" not in payload
