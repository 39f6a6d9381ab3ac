"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import ROOT_SPAN, Tracer  # noqa: E402


def _outer(inner_seconds: float) -> None:
    time.sleep(0.01)
    _inner(inner_seconds)


def _inner(seconds: float) -> None:
    time.sleep(seconds)


def test_self_time_subtracts_children_and_originals_come_back():
    module = sys.modules[__name__]
    original_outer, original_inner = _outer, _inner
    tracer = Tracer()
    tracer.install([(__name__, "_outer"), (__name__, "_inner")])
    try:
        with tracer.span(ROOT_SPAN):
            module._outer(0.02)
            module._outer(0.02)
    finally:
        tracer.restore()
    assert module._outer is original_outer and module._inner is original_inner
    summary = tracer.summary()
    outer = summary["test_bench._outer"]
    inner = summary["test_bench._inner"]
    assert outer["calls"] == 2 and inner["calls"] == 2
    assert abs(outer["self_s"] - (outer["total_s"] - inner["total_s"])) < 1e-9
    assert 0.015 <= outer["self_s"] < inner["self_s"]
    root = summary[ROOT_SPAN]
    accounted = root["self_s"] + outer["self_s"] + inner["self_s"]
    assert abs(accounted - root["total_s"]) < 1e-9


def test_quick_mode_emits_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "quick: ok"
    assert "error:" not in proc.stderr


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "search_p4", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
