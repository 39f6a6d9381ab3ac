"""One benchmark process: runs a single workload in a fresh interpreter.

Modes (the result is one JSON object on the last line of stdout):

* setup  -- import hlcert and compute the workload's exponents; reports the
            import time.  The caller times the whole process.
* e2e    -- untraced: one warm-up unit, then units until `--seconds` have
            passed.  Reports throughput, gate results, quality figures and
            peak RSS.
* trace  -- a fixed prefix of units untraced, then the same prefix traced;
            reports
            per-layer spans and counts, and whether both passes produced
            byte-identical outputs.  ascent_p4 also times one certify call at
            jobs=1 and at jobs=2, both untraced.

Run from the repository root with src/ on PYTHONPATH, e.g.
    PYTHONPATH=src python3 bench/worker.py --workload ascent_p4 --seed 1 --mode e2e --seconds 5
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from tracer import ROOT_SPAN, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"

# certify trials for the jobs=1 vs jobs=2 comparison: certify hands trials to
# workers in chunks of 64, so 128 trials give each of the two workers one chunk
JOBS_TRIALS = 128
QUICK_JOBS_TRIALS = 4
MIN_SLICES = 3          # slices measured even when --seconds runs out first


def import_hlcert() -> float:
    start = time.perf_counter()
    import hlcert

    elapsed = time.perf_counter() - start
    origin = Path(hlcert.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"hlcert was imported from {origin}, not from {SRC}")
    return elapsed


def run_unit(wl, ctx, seed: int, k: int):
    """(result, seconds) of unit k; a unit that raises fails all its tensors."""
    start = time.perf_counter()
    try:
        result = wl.unit(ctx, seed, k)
    except Exception:
        traceback.print_exc()
        result = wl.failed_unit()
    return result, time.perf_counter() - start


def slice_medians(wl, results, times):
    """Medians over slices of `slice_units` consecutive units.

    Returns (tensors per second, best conservative ratio within the slice).
    """
    g = wl.slice_units
    rates, best = [], []
    for i in range(0, len(results) - g + 1, g):
        chunk = results[i : i + g]
        rates.append(sum(r.tensors for r in chunk) / sum(times[i : i + g]))
        best.append(max(r.best_ratio for r in chunk))
    return statistics.median(rates), statistics.median(best)


def mode_e2e(wl, seed: int, seconds: float) -> dict:
    ctx = wl.setup()
    warm, _ = run_unit(wl, ctx, seed, 0)
    results, times = [], []
    start = time.perf_counter()
    while len(results) < MIN_SLICES * wl.slice_units or time.perf_counter() - start < seconds:
        result, elapsed = run_unit(wl, ctx, seed, len(results))
        results.append(result)
        times.append(elapsed)
    window = time.perf_counter() - start
    tensors_per_s, best_ratio = slice_medians(wl, results, times)
    return {
        "attempted": sum(r.tensors for r in results),
        "failed": sum(r.failed for r in results),
        "units": len(results),
        "window_s": window,
        "tensors_per_s": tensors_per_s,
        "best_ratio": best_ratio,
        "gap_p50": statistics.median(wl.gaps(ctx, seed, results)),
        "repeat_identical": warm.canon == results[0].canon,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# span names reported with call counts and self time, and with self time only
SPAN_METRICS = (
    "special.khinchin_A",
    "exponents.exponents",
    "tensor.generate",
    "tensor.mixed_norm",
    "tensor.contract_trailing_signs",
    "norms.alternating_max",
    "norms.dual_norm_linear",
    "norms.exact_linf_enum",
    "norms.crude_upper",
    "chaos.verify_proof_chain",
)
SELF_ONLY = ("tensor.iter_sign_blocks", "certify.certify", "certify.search_extremal")


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(wl, tracer, traced, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced prefix pass; absent layers read 0."""
    spans = tracer.summary()
    root = spans.pop(ROOT_SPAN)
    empty = {"calls": 0, "self_s": 0.0}
    out = {}
    for name in SPAN_METRICS:
        out[name + ".calls"] = spans.get(name, empty)["calls"]
    # every span seen gets a self time, so the layers add up to the wall time
    for name in set(SPAN_METRICS + SELF_ONLY) | set(spans):
        out[name + ".self_s"] = spans.get(name, empty)["self_s"]
    counts = tracer.counts
    unit: Counter = Counter()
    for r in traced:
        unit.update(r.counters)
    out.update({
        "tensor.sign_blocks": counts["tensor.sign_blocks"],
        "tensor.patterns": counts["tensor.patterns"],
        "norms.alternating_max.restarts": counts["norms.alternating_max.restarts"],
        "norms.ascent_sweeps": counts["norms.ascent_dual_calls"] / wl.M,
        "norms.nonconverged_frac": _frac(
            counts["norms.alternating_max.nonconverged"], counts["norms.alternating_max.results"]
        ),
        "chaos.mc_samples": unit["mc_samples"],
        "chaos.link_failures": unit["link_failures"],
        "certify.retries": unit["retries"],
        "certify.retry_frac": _frac(unit["retries"], unit["trials"]),
        "certify.accept_frac": _frac(unit["accepted"], unit["evaluations"]),
        "trace.wall_s": root["total_s"],
        "trace.unaccounted_s": root["self_s"],
        "trace.overhead_frac": root["total_s"] / untraced_wall - 1.0,
    })
    return out


def mode_trace(wl, seed: int, quick: bool) -> dict:
    def prefix_pass():
        ctx = wl.setup()
        return [run_unit(wl, ctx, seed, k)[0] for k in range(wl.trace_units)]

    run_unit(wl, wl.setup(), seed, 0)   # warm-up, untimed
    start = time.perf_counter()
    plain = prefix_pass()
    untraced_wall = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span(ROOT_SPAN):
            traced = prefix_pass()
    finally:
        tracer.restore()

    out = {
        "attempted": sum(r.tensors for r in plain + traced),
        "failed": sum(r.failed for r in plain + traced),
        "identical": [r.canon for r in plain] == [r.canon for r in traced],
        "layers": layer_metrics(wl, tracer, traced, untraced_wall),
    }
    # two workers only where there are two processors to run them
    if wl.name == "ascent_p4" and len(os.sched_getaffinity(0)) >= 2:
        trials = QUICK_JOBS_TRIALS if quick else JOBS_TRIALS
        reports = []
        for jobs in (1, 2):
            start = time.perf_counter()
            reports.append(wl.certify(seed, trials, jobs=jobs))
            out[f"jobs{jobs}_s"] = time.perf_counter() - start
        out["attempted"] += 2 * trials
        out["failed"] += sum(r.violations + r.inconclusive for r in reports)
        plain_jobs = [dict(r.to_jsonable(), jobs=None) for r in reports]
        out["identical"] = out["identical"] and plain_jobs[0] == plain_jobs[1]
        out["layers"]["certify.jobs2_speedup"] = out["jobs1_s"] / out["jobs2_s"]
    else:
        out["layers"]["certify.jobs2_speedup"] = 0.0   # not measured
    return out


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    import_s = import_hlcert()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](quick=args.quick)
    if args.mode == "setup":
        wl.setup()
        out = {"import_s": import_s}
    else:
        if args.mode == "e2e":
            out = mode_e2e(wl, args.seed, args.seconds)
        else:
            out = mode_trace(wl, args.seed, args.quick)
        out["machine"] = machine_info()
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
